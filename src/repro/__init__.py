"""repro — reproduction of "Tuple Space Explosion: A Denial-of-Service
Attack Against a Software Packet Classifier" (Csikor et al., CoNEXT 2019).

The package provides, in layers:

* :mod:`repro.packet` — packet crafting (headers, checksums, pcap export);
* :mod:`repro.classifier` — flow tables, the pluggable megaflow backends
  (Tuple Space Search, TupleChain-style grouped lookup) with their
  generation strategies, and the alternative classifiers of §7 (tries,
  HyperCuts, HaRP);
* :mod:`repro.switch` — the OVS-like datapath, revalidator, NIC offload
  profiles and the calibrated cost model;
* :mod:`repro.netsim` — the simulated cloud testbeds of Fig. 7;
* :mod:`repro.core` — the TSE attack itself: adversarial traces, the
  analytic tuple-space model, the complexity theorems, and MFCGuard;
* :mod:`repro.experiments` — one harness per table/figure of the paper.

Quickstart: ``python examples/quickstart.py`` runs a small co-located
TSE end to end.
"""

from repro.classifier import (
    ALLOW,
    DENY,
    Action,
    FlowRule,
    FlowTable,
    Match,
    MegaflowEntry,
    MegaflowGenerator,
    MegaflowStore,
    MicroflowCache,
    TupleChainSearch,
    TupleSpaceSearch,
    make_megaflow_backend,
)
from repro.core import (
    SIPSPDP,
    AdversarialTrace,
    ColocatedTraceGenerator,
    GeneralTraceGenerator,
    MFCGuard,
    MFCGuardConfig,
    attainable_masks,
    expected_masks,
    use_case,
)
from repro.packet import FlowKey, FlowMask, Packet, PacketBuilder, ipv4
from repro.switch import CostModel, Datapath, DatapathConfig

__version__ = "1.0.0"

__all__ = [
    "FlowKey",
    "FlowMask",
    "Packet",
    "PacketBuilder",
    "ipv4",
    "Match",
    "FlowRule",
    "FlowTable",
    "Action",
    "ALLOW",
    "DENY",
    "TupleSpaceSearch",
    "TupleChainSearch",
    "MegaflowStore",
    "make_megaflow_backend",
    "MegaflowEntry",
    "MegaflowGenerator",
    "MicroflowCache",
    "Datapath",
    "DatapathConfig",
    "CostModel",
    "AdversarialTrace",
    "ColocatedTraceGenerator",
    "GeneralTraceGenerator",
    "MFCGuard",
    "MFCGuardConfig",
    "attainable_masks",
    "expected_masks",
    "use_case",
    "SIPSPDP",
    "__version__",
]
