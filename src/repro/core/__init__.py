"""The paper's contribution: TSE attacks, analytics, detection, mitigation."""

from repro.core.analysis import (
    AclSpec,
    attainable_entries,
    attainable_masks,
    entry_census,
    eq1_probability,
    expected_entries,
    expected_masks,
    expected_masks_curve,
    mask_census,
    spawn_probability,
)
from repro.core.complexity import (
    TradeoffPoint,
    chunk_sizes,
    constructive_cost_multi,
    constructive_cost_single,
    theorem41_bound,
    theorem42_bound,
)
from repro.core.detector import (
    TsePattern,
    entry_matches_pattern,
    find_tse_entries,
    tse_mask_fraction,
    tse_scan_cost_dilution,
)
from repro.core.general import GeneralTraceGenerator
from repro.core.decision import Decision
from repro.core.migration import MigrationController, MigrationPolicy
from repro.core.mitigation import MFCGuard, MFCGuardConfig
from repro.core.planner import AttackPlan, plan_colocated, plan_for_cms, plan_general
from repro.core.rebalance import RebalanceController, RebalancePolicy
from repro.core.tracegen import AdversarialTrace, ColocatedTraceGenerator
from repro.core.usecases import (
    BASELINE,
    DP,
    SIPDP,
    SIPSPDP,
    SPDP,
    USE_CASES,
    UseCase,
    use_case,
)

__all__ = [
    "UseCase",
    "USE_CASES",
    "use_case",
    "BASELINE",
    "DP",
    "SPDP",
    "SIPDP",
    "SIPSPDP",
    "AdversarialTrace",
    "ColocatedTraceGenerator",
    "GeneralTraceGenerator",
    "AclSpec",
    "spawn_probability",
    "eq1_probability",
    "attainable_masks",
    "attainable_entries",
    "entry_census",
    "mask_census",
    "expected_entries",
    "expected_masks",
    "expected_masks_curve",
    "TradeoffPoint",
    "chunk_sizes",
    "theorem41_bound",
    "theorem42_bound",
    "constructive_cost_single",
    "constructive_cost_multi",
    "TsePattern",
    "entry_matches_pattern",
    "find_tse_entries",
    "tse_mask_fraction",
    "tse_scan_cost_dilution",
    "Decision",
    "MFCGuard",
    "MFCGuardConfig",
    "MigrationController",
    "MigrationPolicy",
    "RebalanceController",
    "RebalancePolicy",
    "AttackPlan",
    "plan_colocated",
    "plan_general",
    "plan_for_cms",
]
