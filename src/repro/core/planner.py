"""Attack planning: what can an adversary achieve against a given cloud?

Ties the analytic machinery together the way the paper's discussion (§7)
does: given the CMS backend (which bounds the expressible ACL), a packet
budget and a NIC profile, predict the attainable masks, the expected masks
for the general (random) variant, the packet cost of the co-located trace
and the victim throughput left — the numbers an operator needs to reason
about exposure, and a reviewer needs to sanity-check the attack surface
table of §7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import attainable_masks, expected_masks
from repro.core.usecases import USE_CASES, UseCase, use_case
from repro.exceptions import ExperimentError
from repro.netsim.cms import CmsBackend
from repro.switch.calibration import fit_profile
from repro.switch.offload import GRO_OFF_TCP

__all__ = ["AttackPlan", "plan_colocated", "plan_general", "plan_for_cms"]

# Minimum-size attack frame on the wire (Ethernet + IPv4 + TCP + FCS etc.).
ATTACK_PACKET_BYTES = 84
ATTACK_PPS = 1000.0  # §1: ~1000 packets at 1000 pps tear down OVS
GENERAL_BUDGET = 50000  # random packets of the general attack (§6.2)


@dataclass(frozen=True)
class AttackPlan:
    """Predicted outcome of one attack configuration.

    Attributes:
        use_case: the §5.2 scenario.
        variant: ``"co-located"`` or ``"general"``.
        packets: packets needed (trace size, or the random budget).
        masks: megaflow masks achieved (ceiling, or expectation).
        attack_mbps: one-shot trace bandwidth at ``pps`` packets/second
            (``ATTACK_PPS``).
        victim_fraction: victim throughput fraction left at ``masks``.
    """

    use_case: UseCase
    variant: str
    packets: int
    masks: float
    pps: float
    victim_fraction: float

    @property
    def attack_mbps(self) -> float:
        return self.pps * ATTACK_PACKET_BYTES * 8 / 1e6

    def summary(self) -> str:
        return (
            f"{self.use_case.name:8s} [{self.variant}] {self.packets:>6d} packets "
            f"at {self.pps:.0f} pps ({self.attack_mbps:.2f} Mbps) -> "
            f"{self.masks:7.1f} masks, victim at "
            f"{100 * self.victim_fraction:.1f}% of baseline"
        )


def plan_colocated(scenario: UseCase | str) -> AttackPlan:
    """Predict the co-located attack: exact ceilings from the ACL family."""
    scenario = use_case(scenario) if isinstance(scenario, str) else scenario
    widths = scenario.field_widths()
    masks = attainable_masks(widths)
    # Trace size = one packet per decision path: match rule i after
    # rejecting rules 1..i-1 (prod of earlier widths), plus the all-reject
    # deny paths (prod of all widths).
    packets = sum(_prefix_product(widths, i) for i in range(len(widths) + 1))
    return AttackPlan(
        use_case=scenario,
        variant="co-located",
        packets=packets,
        masks=float(masks),
        pps=ATTACK_PPS,
        victim_fraction=fit_profile(GRO_OFF_TCP).fraction(masks),
    )


def _prefix_product(widths: tuple[int, ...], index: int) -> int:
    product = 1
    for width in widths[:index]:
        product *= width
    return product


def plan_general(scenario: UseCase | str, packets: int) -> AttackPlan:
    """Predict the general (random) attack via Eq. 2."""
    scenario = use_case(scenario) if isinstance(scenario, str) else scenario
    if packets < 0:
        raise ExperimentError("packets must be >= 0")
    masks = expected_masks(scenario.field_widths(), packets)
    return AttackPlan(
        use_case=scenario,
        variant="general",
        packets=packets,
        masks=masks,
        pps=ATTACK_PPS,
        victim_fraction=fit_profile(GRO_OFF_TCP).fraction(masks),
    )


def plan_for_cms(cms: CmsBackend) -> list[AttackPlan]:
    """Every plan the CMS admits, strongest first (the §7 exposure table).

    The backend's expressiveness ceiling bounds which use cases a tenant
    can provoke: OpenStack stops at SipDp, Calico admits SipSpDp.
    """
    ceiling = use_case(cms.max_use_case())
    admitted = [
        scenario
        for scenario in USE_CASES.values()
        if scenario.name != "Baseline"
        and len(scenario.allow_fields) <= len(ceiling.allow_fields)
        and set(scenario.allow_fields) <= set(ceiling.allow_fields)
    ]
    plans: list[AttackPlan] = []
    for scenario in admitted:
        plans.append(plan_colocated(scenario))
        plans.append(plan_general(scenario, packets=GENERAL_BUDGET))
    plans.sort(key=lambda plan: plan.victim_fraction)
    return plans
