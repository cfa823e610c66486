"""The paper's evaluation use cases: Baseline, Dp, SpDp, SipDp, SipSpDp (§5.2).

Each use case is an ACL from the family the attack targets — a handful of
allow rules, each exact-matching a *different* header field, in front of a
DefaultDeny — plus the list of fields the adversarial traffic varies.  The
full-blown SipSpDp case is exactly Fig. 6:

    Rule id  ip_src    tcp_src  tcp_dst  action
    #1       *         *        80       allow
    #2       10.0.0.1  *        *        allow
    #3       *         12345    *        allow
    #4       *         *        *        deny
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifier.actions import ALLOW
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.exceptions import ExperimentError
from repro.packet.addresses import ipv4
from repro.packet.fields import FIELDS
from repro.packet.headers import PROTO_TCP

__all__ = ["UseCase", "BASELINE", "DP", "SPDP", "SIPDP", "SIPSPDP", "USE_CASES", "use_case"]


@dataclass(frozen=True)
class UseCase:
    """One evaluation scenario of §5.2.

    Attributes:
        name: the paper's label (Dp, SpDp, …).
        description: what is attacked.
        allow_fields: fields carrying an exact-match allow rule, in rule
            priority order (highest first).  The attack varies exactly
            these fields.
        expected_max_masks: the co-located mask ceiling the paper quotes.
    """

    name: str
    description: str
    allow_fields: tuple[str, ...]
    expected_max_masks: int

    # Concrete allowed values for each field rule (service port 80,
    # trusted host 10.0.0.1, trusted source port 12345 — Fig. 6).
    _ALLOW_VALUES = {
        "tp_dst": 80,
        "ip_src": 0x0A000001,  # 10.0.0.1
        "tp_src": 12345,
    }

    def allow_value(self, field_name: str) -> int:
        """The allowed (exact-match) value for ``field_name``."""
        try:
            return self._ALLOW_VALUES[field_name]
        except KeyError:
            raise ExperimentError(f"use case has no allow value for {field_name!r}") from None

    def field_widths(self) -> tuple[int, ...]:
        """Bit widths of the attacked fields, in rule priority order."""
        return tuple(FIELDS[name].width for name in self.allow_fields)

    def build_table(self, ip_dst: int | None = None) -> FlowTable:
        """Build the use case's flow table; its L4 rules apply to TCP.

        Args:
            ip_dst: when given, every rule additionally exact-matches the
                destination address (tenant scoping).  All attack packets
                carry this destination, so the extra constraint never
                multiplies masks.
        """
        table = FlowTable(name=f"acl-{self.name.lower()}")
        scope: dict[str, int | tuple[int, int]] = {}
        if ip_dst is not None:
            scope["ip_dst"] = ip_dst
        if any(name.startswith("tp_") for name in self.allow_fields):
            scope["ip_proto"] = PROTO_TCP

        priority = 10 * len(self.allow_fields)
        for index, field_name in enumerate(self.allow_fields, start=1):
            constraints: dict[str, int | tuple[int, int]] = dict(scope)
            constraints[field_name] = self.allow_value(field_name)
            table.add_rule(
                Match(**constraints), ALLOW, priority=priority, name=f"allow-{field_name}"
            )
            priority -= 10
        table.add_default_deny()
        return table

    def __str__(self) -> str:
        return self.name


BASELINE = UseCase(
    name="Baseline",
    description="one allow rule, benign traffic only — full switch capacity",
    allow_fields=("tp_dst",),
    expected_max_masks=1,
)

DP = UseCase(
    name="Dp",
    description="attack the 16-bit TCP destination port",
    allow_fields=("tp_dst",),
    expected_max_masks=16,
)

SPDP = UseCase(
    name="SpDp",
    description="attack source and destination ports (16 x 16)",
    allow_fields=("tp_dst", "tp_src"),
    expected_max_masks=256,
)

SIPDP = UseCase(
    name="SipDp",
    description="attack source IP and destination port (32 x 16)",
    allow_fields=("tp_dst", "ip_src"),
    expected_max_masks=512,
)

SIPSPDP = UseCase(
    name="SipSpDp",
    description="full-blown Fig. 6 attack (16 x 32 x 16)",
    allow_fields=("tp_dst", "ip_src", "tp_src"),
    expected_max_masks=8192,
)

USE_CASES: dict[str, UseCase] = {
    uc.name: uc for uc in (BASELINE, DP, SPDP, SIPDP, SIPSPDP)
}


def use_case(name: str) -> UseCase:
    """Look up a use case by its paper label (case-insensitive)."""
    for candidate in USE_CASES.values():
        if candidate.name.lower() == name.lower():
            return candidate
    raise ExperimentError(f"unknown use case {name!r}; known: {', '.join(USE_CASES)}")


# Re-export for callers building the Fig. 6 table with the exact paper IPs.
TRUSTED_IP = ipv4("10.0.0.1")
