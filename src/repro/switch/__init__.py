"""The simulated software switch: datapath, caches, offloads, cost model."""

from repro.switch.calibration import CurveParams, fit_profile
from repro.switch.costmodel import CostModel, slow_path_cpu_pct
from repro.switch.datapath import (
    BatchVerdicts,
    Datapath,
    DatapathConfig,
    PacketVerdict,
    PathTaken,
)
from repro.switch.dpctl import dump_flows, format_flow, mask_histogram, show
from repro.switch.maskcache import KernelMaskCache
from repro.switch.offload import (
    FHO_TCP,
    GRO_OFF_TCP,
    GRO_ON_TCP,
    PROFILES,
    UDP_PROFILE,
    NicProfile,
)
from repro.switch.revalidator import Revalidator, RevalidatorStats

__all__ = [
    "Datapath",
    "DatapathConfig",
    "PacketVerdict",
    "BatchVerdicts",
    "PathTaken",
    "KernelMaskCache",
    "Revalidator",
    "RevalidatorStats",
    "NicProfile",
    "PROFILES",
    "GRO_OFF_TCP",
    "GRO_ON_TCP",
    "FHO_TCP",
    "UDP_PROFILE",
    "CurveParams",
    "fit_profile",
    "CostModel",
    "slow_path_cpu_pct",
    "show",
    "dump_flows",
    "format_flow",
    "mask_histogram",
]
