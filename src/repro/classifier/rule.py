"""Wildcard match expressions and flow rules.

A :class:`Match` constrains a subset of header fields, each with a
``(value, mask)`` pair — exact matches use the full field mask, prefixes use
MSB-anchored masks, and unmentioned fields are wildcarded.  A
:class:`FlowRule` pairs a match with a priority and an action; ordered sets
of rules form the flow table of §2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.classifier.actions import Action
from repro.exceptions import RuleError
from repro.packet.fields import FIELDS, FlowKey, FlowMask, field

__all__ = ["Match", "FlowRule"]


class Match:
    """An immutable wildcard match over registry fields.

    Field constraints are given as keyword arguments; each constraint is
    either an exact value (``tp_dst=80``), a ``(value, mask)`` tuple, or a
    CIDR-style ``(value, prefix_len)`` via :meth:`with_prefix`.

    Example::

        Match(tp_dst=80)                       # exact on one field
        Match(ip_src=(0x0a000000, 0xffffff00)) # 10.0.0.0/24
    """

    __slots__ = ("_constraints", "_hash")

    def __init__(self, **kwargs: int | tuple[int, int]):
        constraints: dict[str, tuple[int, int]] = {}
        for name, spec in kwargs.items():
            fdef = field(name)
            if isinstance(spec, tuple):
                value, mask = spec
            else:
                value, mask = spec, fdef.full_mask
            fdef.check_value(value)
            fdef.check_mask(mask)
            if value & ~mask:
                raise RuleError(
                    f"{name}: value {value:#x} has bits outside mask {mask:#x}"
                )
            if mask == 0:
                continue  # fully wildcarded constraint is no constraint
            constraints[name] = (value, mask)
        # Keep canonical field order for deterministic iteration.
        self._constraints: tuple[tuple[str, int, int], ...] = tuple(
            (name, *constraints[name]) for name in FIELDS if name in constraints
        )
        self._hash = hash(self._constraints)

    @classmethod
    def any(cls) -> "Match":
        """The match-all wildcard (used for DefaultDeny rules)."""
        return cls()

    # -- queries ---------------------------------------------------------------
    def constraints(self) -> Iterator[tuple[str, int, int]]:
        """Iterate ``(field, value, mask)`` in canonical field order."""
        return iter(self._constraints)

    @property
    def fields(self) -> tuple[str, ...]:
        """Names of constrained fields, in canonical order."""
        return tuple(name for name, _v, _m in self._constraints)

    def constraint(self, name: str) -> tuple[int, int] | None:
        """The (value, mask) constraint on ``name``, or None."""
        for fname, value, mask in self._constraints:
            if fname == name:
                return value, mask
        return None

    @property
    def is_catchall(self) -> bool:
        """True when no field is constrained."""
        return not self._constraints

    def matches(self, key: FlowKey) -> bool:
        """True when ``key`` satisfies every constraint."""
        for name, value, mask in self._constraints:
            if (key[name] & mask) != value:
                return False
        return True

    def mask(self) -> FlowMask:
        """The aggregate FlowMask of all constrained bits."""
        return FlowMask(**{name: mask for name, _v, mask in self._constraints})

    def overlaps(self, other: "Match") -> bool:
        """True when some packet could satisfy both matches."""
        mine = {name: (v, m) for name, v, m in self._constraints}
        for name, value, mask in other._constraints:
            if name in mine:
                my_value, my_mask = mine[name]
                common = my_mask & mask
                if (my_value & common) != (value & common):
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Match):
            return self._constraints == other._constraints
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._constraints:
            return "Match(*)"
        parts = ", ".join(
            f"{name}={value:#x}/{mask:#x}" for name, value, mask in self._constraints
        )
        return f"Match({parts})"


@dataclass(frozen=True)
class FlowRule:
    """One flow-table entry: match + priority + action.

    Higher ``priority`` wins; among equal priorities the rule added first
    wins (stable order, matching the paper's "first flow overrides").
    """

    match: Match
    action: Action
    priority: int = 0
    name: str = ""

    def matches(self, key: FlowKey) -> bool:
        """True when ``key`` satisfies this rule's match."""
        return self.match.matches(key)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"FlowRule(prio={self.priority},{label} {self.match!r} -> {self.action})"
