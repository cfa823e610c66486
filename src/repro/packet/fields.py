"""Header-field registry and the :class:`FlowKey` / :class:`FlowMask` model.

Packet classification in this library operates on *flow keys*: fixed-width
unsigned integer values for a canonical, ordered set of protocol header
fields (the same abstraction as the ``struct flow`` of Open vSwitch).  A
:class:`FlowKey` assigns a value to every field (absent protocol layers are
zero-filled, as in OVS); a :class:`FlowMask` assigns a *bit mask* to every
field, where ``0`` means the field is fully wildcarded.

Bit positions within a field are numbered **from the most significant bit**,
starting at 0, matching the paper's convention: for the 3-bit header value
``001`` the first bit (position 0) is ``0`` and the last (position 2) is
``1``.  Prefix masks cover positions ``0..plen-1``.

The registry is intentionally small and fixed: the canonical field order
determines the order in which megaflow generation examines fields, so it is
part of the reproduction's semantics (see ``repro.classifier.slowpath``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_
from typing import Iterator, Mapping

from repro.exceptions import FieldError

__all__ = [
    "FieldDef",
    "FIELDS",
    "FIELD_ORDER",
    "field",
    "field_names",
    "FlowKey",
    "FlowMask",
    "EXACT_MASK",
    "WILDCARD_MASK",
]


@dataclass(frozen=True)
class FieldDef:
    """Definition of one classification header field.

    Attributes:
        name: canonical field name (e.g. ``"ip_src"``).
        width: field width in bits.
        layer: informational protocol layer tag (``"l1"``…``"l4"``).
        description: human-readable description.
    """

    name: str
    width: int
    layer: str
    description: str

    @property
    def max_value(self) -> int:
        """Largest value representable in this field."""
        return (1 << self.width) - 1

    @property
    def full_mask(self) -> int:
        """Mask with every bit of the field set (exact match)."""
        return (1 << self.width) - 1

    def check_value(self, value: int) -> int:
        """Validate that ``value`` fits the field width and return it."""
        if not isinstance(value, int):
            raise FieldError(f"{self.name}: value must be int, got {type(value).__name__}")
        if value < 0 or value > self.max_value:
            raise FieldError(
                f"{self.name}: value {value:#x} does not fit in {self.width} bits"
            )
        return value

    def check_mask(self, mask: int) -> int:
        """Validate that ``mask`` fits the field width and return it."""
        if not isinstance(mask, int):
            raise FieldError(f"{self.name}: mask must be int, got {type(mask).__name__}")
        if mask < 0 or mask > self.max_value:
            raise FieldError(
                f"{self.name}: mask {mask:#x} does not fit in {self.width} bits"
            )
        return mask

    def prefix_mask(self, plen: int) -> int:
        """Mask covering the ``plen`` most significant bits of the field."""
        if plen < 0 or plen > self.width:
            raise FieldError(f"{self.name}: prefix length {plen} out of range 0..{self.width}")
        if plen == 0:
            return 0
        return ((1 << plen) - 1) << (self.width - plen)



# Canonical field registry.  The order below is the canonical examination
# order used by megaflow generation and must stay stable.
_FIELD_DEFS = (
    FieldDef("in_port", 16, "l1", "ingress switch port"),
    FieldDef("eth_src", 48, "l2", "Ethernet source MAC"),
    FieldDef("eth_dst", 48, "l2", "Ethernet destination MAC"),
    FieldDef("eth_type", 16, "l2", "EtherType"),
    FieldDef("ip_src", 32, "l3", "IPv4 source address"),
    FieldDef("ip_dst", 32, "l3", "IPv4 destination address"),
    FieldDef("ipv6_src", 128, "l3", "IPv6 source address"),
    FieldDef("ipv6_dst", 128, "l3", "IPv6 destination address"),
    FieldDef("ip_proto", 8, "l3", "IP protocol number"),
    FieldDef("ip_ttl", 8, "l3", "IPv4 TTL / IPv6 hop limit"),
    FieldDef("ip_tos", 8, "l3", "IPv4 ToS / IPv6 traffic class"),
    FieldDef("tp_src", 16, "l4", "TCP/UDP source port"),
    FieldDef("tp_dst", 16, "l4", "TCP/UDP destination port"),
)

FIELDS: Mapping[str, FieldDef] = {f.name: f for f in _FIELD_DEFS}
FIELD_ORDER: tuple[str, ...] = tuple(f.name for f in _FIELD_DEFS)
_INDEX: Mapping[str, int] = {name: i for i, name in enumerate(FIELD_ORDER)}
_NFIELDS = len(FIELD_ORDER)
_WIDTHS: tuple[int, ...] = tuple(f.width for f in _FIELD_DEFS)
_FULL_MASKS: tuple[int, ...] = tuple(f.full_mask for f in _FIELD_DEFS)


def field(name: str) -> FieldDef:
    """Look up a field definition by name, raising :class:`FieldError`."""
    try:
        return FIELDS[name]
    except KeyError:
        raise FieldError(f"unknown field {name!r}; known fields: {', '.join(FIELD_ORDER)}") from None


def field_names() -> tuple[str, ...]:
    """Canonical field order (a copy-safe tuple)."""
    return FIELD_ORDER


class _FieldVector:
    """Immutable vector of per-field integers (shared FlowKey/FlowMask base).

    Values are stored as a tuple aligned with :data:`FIELD_ORDER`; the hash
    is precomputed because keys are used heavily as dict keys inside the
    tuple-space hashes.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: tuple[int, ...]):
        self._values = values
        self._hash = hash(values)

    @staticmethod
    def _build(kind: str, kwargs: Mapping[str, int], checker: str) -> tuple[int, ...]:
        """Checked keyword fields -> the canonical value tuple."""
        values = [0] * _NFIELDS
        for name, value in kwargs.items():
            idx = _INDEX.get(name)
            if idx is None:
                raise FieldError(f"unknown field {name!r} for {kind}")
            check = getattr(_FIELD_DEFS[idx], checker)
            values[idx] = check(value)
        return tuple(values)

    # -- mapping-ish interface ------------------------------------------------
    def __getitem__(self, name: str) -> int:
        idx = _INDEX.get(name)
        if idx is None:
            raise FieldError(f"unknown field {name!r}")
        return self._values[idx]

    def get(self, name: str, default: int = 0) -> int:
        idx = _INDEX.get(name)
        return default if idx is None else self._values[idx]

    def at(self, index: int) -> int:
        """Value at canonical field index (fast path, no name lookup)."""
        return self._values[index]

    @property
    def values(self) -> tuple[int, ...]:
        """The raw per-field tuple, aligned with :data:`FIELD_ORDER`."""
        return self._values

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(zip(FIELD_ORDER, self._values))

    def items_nonzero(self) -> Iterator[tuple[str, int]]:
        for name, value in zip(FIELD_ORDER, self._values):
            if value:
                yield name, value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _FieldVector):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def _format_fields(self) -> str:
        return ", ".join(f"{n}={v:#x}" for n, v in self.items_nonzero())


class FlowKey(_FieldVector):
    """A concrete packet header, one value per registry field.

    Fields that are not given default to zero (absent layers), mirroring the
    zero-filled ``struct flow`` of OVS.

    Example::

        key = FlowKey(ip_src=0x0a000001, ip_proto=6, tp_dst=80)
        key["tp_dst"]    # 80

    ``_row`` is an opaque slot owned by :mod:`repro.classifier.kernel` (see
    "the packed row" there): ``None`` until the key is first scanned, a pure
    function of ``values`` afterwards, and never pickled or copied.
    """

    __slots__ = ("_row",)

    def __init__(self, **kwargs: int):
        super().__init__(self._build("FlowKey", kwargs, "check_value"))
        self._row = None

    def __reduce__(self):
        # Values only: neither the hash (recomputed) nor the packed row
        # (120 bytes per key the pipe transport must not ship) travels.
        return FlowKey.from_values, (self._values,)

    @classmethod
    def from_values(cls, values: tuple[int, ...]) -> "FlowKey":
        """Build directly from a canonical value tuple (trusted, fast)."""
        if len(values) != _NFIELDS:
            raise FieldError(f"FlowKey needs {_NFIELDS} values, got {len(values)}")
        obj = cls.__new__(cls)
        obj._values = values
        obj._hash = hash(values)
        obj._row = None
        return obj

    def replace(self, **kwargs: int) -> "FlowKey":
        """A copy of this key with the given fields replaced."""
        values = list(self._values)
        for name, value in kwargs.items():
            idx = _INDEX.get(name)
            if idx is None:
                raise FieldError(f"unknown field {name!r}")
            values[idx] = _FIELD_DEFS[idx].check_value(value)
        return FlowKey.from_values(tuple(values))

    def masked(self, mask: "FlowMask") -> tuple[int, ...]:
        """This key under ``mask`` — the hashable tuple stored in TSS hashes."""
        return tuple(map(and_, self._values, mask._values))

    def matches(self, value_mask: "FlowMask", value: "FlowKey") -> bool:
        """True when this key agrees with ``value`` on all bits of the mask."""
        for v, m, r in zip(self._values, value_mask.values, value.values):
            if (v & m) != (r & m):
                return False
        return True

    def __repr__(self) -> str:
        return f"FlowKey({self._format_fields()})"


class FlowMask(_FieldVector):
    """A per-field bit mask; zero bits are wildcarded.

    FlowMasks identify the *tuples* of Tuple Space Search: every distinct
    FlowMask in the megaflow cache owns one hash table, and lookup scans
    masks sequentially (Algorithm 1 of the paper).
    """

    __slots__ = ()

    def __init__(self, **kwargs: int):
        super().__init__(self._build("FlowMask", kwargs, "check_mask"))

    @classmethod
    def from_values(cls, values: tuple[int, ...]) -> "FlowMask":
        """Build directly from a canonical mask tuple (trusted, fast)."""
        if len(values) != _NFIELDS:
            raise FieldError(f"FlowMask needs {_NFIELDS} values, got {len(values)}")
        obj = cls.__new__(cls)
        _FieldVector.__init__(obj, values)
        return obj

    @classmethod
    def exact(cls) -> "FlowMask":
        """Mask matching every bit of every field (microflow-style key)."""
        return cls.from_values(_FULL_MASKS)

    @classmethod
    def wildcard(cls) -> "FlowMask":
        """Mask matching nothing (every field fully wildcarded)."""
        return cls.from_values((0,) * _NFIELDS)

    def union(self, other: "FlowMask") -> "FlowMask":
        """Bitwise OR of two masks."""
        return FlowMask.from_values(
            tuple(a | b for a, b in zip(self._values, other.values))
        )

    def overlaps_key(
        self, key_a: tuple[int, ...], other: "FlowMask", key_b: tuple[int, ...]
    ) -> bool:
        """True when some packet can match both (mask, key) pairs.

        ``key_a`` / ``key_b`` are canonical masked-value tuples.  Two
        masked entries overlap iff their keys agree on the intersection of
        their masks.
        """
        for ma, mb, ka, kb in zip(self._values, other.values, key_a, key_b):
            common = ma & mb
            if (ka & common) != (kb & common):
                return False
        return True

    def n_bits(self) -> int:
        """Total number of un-wildcarded bits across all fields."""
        return sum(v.bit_count() for v in self._values)

    def wildcarded_bits(self) -> int:
        """Total number of wildcarded bits across all fields."""
        return sum(_WIDTHS) - self.n_bits()

    def __repr__(self) -> str:
        return f"FlowMask({self._format_fields()})"


EXACT_MASK = FlowMask.exact()
WILDCARD_MASK = FlowMask.wildcard()
