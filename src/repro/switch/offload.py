"""NIC / driver offload profiles (§5.4).

The paper measures four configurations whose interaction with the TSE
attack differs sharply:

* **GRO OFF (TCP)** — every MTU-sized frame is classified individually; the
  switch is CPU-bound on classification and collapses fastest.
* **GRO ON (TCP)** — generic receive offload and jumbo frames assemble many
  small TCP segments into one large buffer, dividing the classification
  rate by the aggregation factor; degradation only shows at high mask
  counts.
* **FHO (TCP)** — full hardware offload (Mellanox CX-4): the TSS classifier
  runs in NIC hardware at ~30 Gbps, but remains a TSS and still degrades
  once the mask count exceeds a couple of hundred.
* **UDP** — GRO/TSO do not apply; behaves like GRO OFF with a slightly
  different baseline.

Each profile carries the *shape anchors* reported in §5.4/§6.2 (fraction of
its own baseline at given mask counts); :mod:`repro.switch.calibration`
fits the cost-curve parameters to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping

from repro.exceptions import SwitchError

__all__ = ["NicProfile", "GRO_OFF_TCP", "GRO_ON_TCP", "FHO_TCP", "UDP_PROFILE", "PROFILES"]


@dataclass(frozen=True)
class NicProfile:
    """One NIC/driver configuration of Table 1 / §5.4.

    Attributes:
        name: profile identifier (also the legend label in Fig. 9a).
        baseline_gbps: throughput with a single-mask MFC.
        unit_bytes: bytes classified per TSS lookup (MTU frame, or the
            GRO-aggregated buffer).
        anchors: mask count -> fraction-of-baseline throughput, from the
            paper; drives curve fitting (README's probe-units paragraph,
            *Cost model: the probe-native cost plane*).
    """

    name: str
    baseline_gbps: float
    unit_bytes: int
    anchors: Mapping[int, float] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.baseline_gbps <= 0:
            raise SwitchError(f"{self.name}: baseline_gbps must be positive")
        if self.unit_bytes <= 0:
            raise SwitchError(f"{self.name}: unit_bytes must be positive")
        for masks, fraction in self.anchors.items():
            if masks < 1 or not (0.0 < fraction <= 1.0):
                raise SwitchError(f"{self.name}: bad anchor ({masks}, {fraction})")


# Anchor fractions transcribed from §5.4 (use cases at 17 / 260 / 516 / 8200
# masks) and §6.2 (UDP at the general-TSE mask counts).
GRO_OFF_TCP = NicProfile(
    name="GRO OFF (TCP)",
    baseline_gbps=10.0,
    unit_bytes=1500,
    anchors={1: 1.0, 17: 0.53, 260: 0.10, 516: 0.047, 8200: 0.002},
)

GRO_ON_TCP = NicProfile(
    name="GRO ON (TCP)",
    baseline_gbps=10.0,
    unit_bytes=65536,  # one aggregated TCP buffer per lookup
    anchors={1: 1.0, 17: 0.97, 260: 0.95, 516: 0.76, 8200: 0.039},
)

FHO_TCP = NicProfile(
    name="FHO ON (TCP)",
    baseline_gbps=30.0,
    unit_bytes=1500,
    anchors={1: 1.0, 17: 0.88, 260: 0.43, 516: 0.29, 8200: 0.021},
)

UDP_PROFILE = NicProfile(
    name="UDP",
    baseline_gbps=9.5,
    unit_bytes=1470,
    anchors={1: 1.0, 16: 0.60, 122: 0.158, 581: 0.0325, 8200: 0.002},
)

PROFILES: dict[str, NicProfile] = {
    profile.name: profile
    for profile in (GRO_OFF_TCP, GRO_ON_TCP, FHO_TCP, UDP_PROFILE)
}
