"""The public surface of ``src/repro`` is what the program calls.

Every public top-level function or class, and every public method or
property of a top-level class, must be named somewhere the program runs
from: a module under ``src/``, an example, or the perf harness.  Tests do
not count — a name only a test reaches is either deleted or moved under
``tests/`` as the oracle that test compares against — and neither do
``__all__`` lists or a package ``__init__``'s re-exports (its imports).

A caller is the bare identifier as an ``ast.Name``, an attribute, an
``import from`` alias or a string argument to a call (``getattr(x,
"name")``, ``call_all("megaflows.name")``), outside the name's own
definition.  Matching on the identifier alone over-counts callers (two
``run`` methods share every ``.run`` call), so what the test reports is a
floor of the dead surface.  A name reached in a way the match cannot see
goes in ``ALLOWED`` with its reason.

The same holds for options: every field with a default, in each public
frozen dataclass, must be passed by keyword (``Config(name=...)``,
``replace(config, name=...)``) by some call in a caller file, outside its
own class body.  The match is on the keyword alone, so it too reports a
floor; a default nobody overrides is a constant, kept where it is read.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CALLER_ROOTS = ("src", "examples", "benchmarks/perf")

# Names that stay without a caller the match can see, each with why: one
# reached in a way the match cannot see, or safety code on a production path.
ALLOWED: dict[str, str] = {}

# Names with no production caller that tests still reach, each with those
# tests.  A test that checks only the name is deleted with it; one that uses
# it as input is rewritten.  Rows may only be deleted, never added.
PINNED_BY_TESTS: dict[str, tuple[str, ...]] = {
    "core.analysis:attainable_entries": (
        "test_analysis::TestAttainable::test_entries_exceed_masks",
        "test_analysis::TestAttainable::test_fig4_entries",
        "test_analysis::TestCensus::test_entry_census_totals",
    ),
    "core.analysis:mask_census": (
        "test_analysis::TestCensus::test_mask_census_totals",
        "test_analysis::TestCensus::test_wildcard_counts_bounded",
    ),
    "core.analysis:expected_entries": (
        "test_analysis::TestExpectedEntries::test_eq2_literal",
        "test_analysis::TestExpectedEntries::test_entries_at_least_masks",
    ),
    "core.analysis:expected_masks_curve": ("test_analysis::TestExpectedMasks::test_monotone_in_n",),
    "core.detector:tse_mask_fraction": (
        "test_detector::TestDetection::test_most_masks_attributed",
        "test_detector::TestBenignTraffic::test_benign_cache_not_flagged",
        "test_detector::TestBenignTraffic::test_empty_cache",
        "test_probecost::test_detector_dilution_is_backend_meaningful",
    ),
    "core.detector:tse_scan_cost_dilution": (
        "test_backend_table::test_dilution_on_a_subclassed_backend",
        "test_probecost::test_detector_dilution_is_backend_meaningful",
    ),
}


# Options no production caller sets that tests do, to reach behaviour at
# test scale or to span a differential's input domain, each with those
# tests.  Rows may only be deleted, never added.
OPTIONS_FOR_TESTS: dict[str, tuple[str, ...]] = {
    # 8-32 slots force mask-memo collisions on small traces.
    "switch.datapath:DatapathConfig.mask_cache_size": (
        "test_backend::test_backends_verdict_identical",
        "test_batch::test_process_batch_equivalent",
        "test_burst_bookkeeping::test_burst_snapshots_equal_per_packet_reads",
        "test_executor::TestVerdictEquivalence::test_microflow_and_mask_cache_levels",
        "test_shard::TestShardEquivalence::test_one_shard_identical_to_datapath",
    ),
    # The three span the vector == scalar settlement differential's inputs.
    "netsim.hypervisor:QuirkConfig.establish_seconds": (
        "test_settlement::test_settle_rates_matches_scalar",
        "test_settlement::test_update_protection_matches_scalar",
        "test_hypervisor::TestProtectionQuirk::test_flow_earns_protection_when_calm",
        "test_hypervisor::TestProtectionQuirk::test_no_protection_under_attack",
        "test_hypervisor::TestProtectionQuirk::test_protected_flow_keeps_rate_under_attack",
    ),
    "netsim.hypervisor:QuirkConfig.establish_mask_ceiling": (
        "test_settlement::test_settle_rates_matches_scalar",
        "test_settlement::test_update_protection_matches_scalar",
    ),
    "netsim.hypervisor:QuirkConfig.collision_rate": (
        "test_settlement::test_settle_rates_matches_scalar",
        "test_settlement::test_update_protection_matches_scalar",
    ),
    # Small stores trigger a migration only below the 512-unit default.
    "core.migration:MigrationPolicy.cost_threshold": (
        "test_migration::TestMigrationController::test_triggers_and_swaps_on_cost",
        "test_migration::TestMigrationController::test_bounded_slices_spread_the_rebuild",
        "test_migration::TestMigrationController::test_a_failed_swap_is_aborted_and_raised",
        "test_migration::TestMigrationController::test_no_retrigger_after_swap",
        "test_migration::TestMigrationController::test_cooldown_and_hysteresis_gate_restarts",
        "test_migration::TestMigrationController::test_arms_guard_stand_down",
        "test_migration::TestMigrationController::test_policy_validation",
        "test_migration::TestEnvironmentWiring::test_server_builds_migrator_only_when_policy_set",
        "test_probecost::test_inert_migration_policy_is_float_identical",
        "test_golden::test_output_matches_golden",
    ),
    # Small stores rebuild in several steps only with small slices.
    "core.migration:MigrationPolicy.slice_entries": (
        "test_migration::TestMigrationController::test_triggers_and_swaps_on_cost",
        "test_migration::TestMigrationController::test_bounded_slices_spread_the_rebuild",
        "test_migration::TestMigrationController::test_a_failed_swap_is_aborted_and_raised",
        "test_migration::TestMigrationController::test_no_retrigger_after_swap",
        "test_migration::TestMigrationController::test_policy_validation",
    ),
    # The shm ring encodes it; it goes with FORWARD.
    "classifier.actions:Action.out_port": ("test_rule::TestAction::test_forward",),
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def definitions(path: Path) -> list[tuple[str, str, int, int]]:
    """``(qualified name, identifier, first line, last line)`` of the public
    top-level functions and classes of one module, and of the public
    methods and properties of its top-level classes."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        found.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(member.name):
                    found.append((f"{node.name}.{member.name}", member.name, member.lineno, member.end_lineno))
    return found


def references(path: Path) -> list[tuple[str, int]]:
    """``(identifier, line)`` of every name one file uses; a package
    ``__init__``'s imports are re-exports, not uses."""
    reexports = path.name == "__init__.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and not reexports:
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Call):
            for arg in (*node.args, *(keyword.value for keyword in node.keywords)):
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    found.extend((part, node.lineno) for part in arg.value.split("."))
    return found


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        frozen = any(
            keyword.arg == "frozen" and getattr(keyword.value, "value", False) is True
            for keyword in decorator.keywords
        )
        if name == "dataclass" and frozen:
            return True
    return False


def options(path: Path) -> list[tuple[str, str, int, int]]:
    """``(qualified name, field, first line, last line)`` of every field
    with a default (``ClassVar`` constants aside) in each public frozen
    dataclass of one module; the lines are the class body's."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, ast.ClassDef) and _is_public(node.name) and _is_frozen_dataclass(node)):
            continue
        for member in node.body:
            if (
                isinstance(member, ast.AnnAssign)
                and isinstance(member.target, ast.Name)
                and member.value is not None
                and "ClassVar" not in ast.unparse(member.annotation)
            ):
                found.append((f"{node.name}.{member.target.id}", member.target.id, node.lineno, node.end_lineno))
    return found


def keywords(path: Path) -> list[tuple[str, int]]:
    """``(keyword, line)`` of every keyword argument one file passes."""
    return [
        (keyword.arg, node.lineno)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    ]


def _unreached(found, scan) -> list[str]:
    """``module:name`` of what ``found`` lists in ``src/repro`` that no
    caller file reaches with ``scan``, outside its own definition."""
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path in (path for root in CALLER_ROOTS for path in sorted((REPO / root).rglob("*.py"))):
        for name, line in scan(path):
            seen.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for qualified, name, first, last in found(path):
            called = any(
                where != path or not first <= line <= last for where, line in seen.get(name, ())
            )
            if not called:
                dead.append(f"{module}:{qualified}")
    return dead


def uncalled() -> list[str]:
    """Qualified names (``module:name``) that no caller file reaches."""
    return _unreached(definitions, references)


def unset() -> list[str]:
    """Options (``module:Class.field``) that no caller file passes."""
    return _unreached(options, keywords)


def _test_names() -> set[str]:
    tests = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{path.stem}::{node.name}::" if isinstance(node, ast.ClassDef) else f"{path.stem}::"
            tests.update(prefix + member.name for member in members if isinstance(member, ast.FunctionDef))
    return tests


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(ALLOWED) - set(PINNED_BY_TESTS)) == []


def test_every_listed_name_exists_and_is_still_uncalled():
    assert sorted((set(ALLOWED) | set(PINNED_BY_TESTS)) - set(uncalled())) == []
    assert sorted({test for pinned in PINNED_BY_TESTS.values() for test in pinned} - _test_names()) == []


def test_every_option_is_set_by_a_caller():
    assert sorted(set(unset()) - set(OPTIONS_FOR_TESTS)) == []


def test_every_listed_option_exists_and_is_still_unset():
    assert sorted(set(OPTIONS_FOR_TESTS) - set(unset())) == []
    assert sorted({test for setters in OPTIONS_FOR_TESTS.values() for test in setters} - _test_names()) == []


def test_the_scan_sees_each_kind_of_caller(tmp_path):
    source = tmp_path / "caller.py"
    source.write_text(
        "from repro.core import alpha\n"
        "beta()\n"
        "x.gamma\n"
        "getattr(x, 'delta')\n"
        "call_all('store.epsilon')\n"
        "__all__ = ['zeta']\n"
    )
    names = {name for name, _ in references(source)}
    assert {"alpha", "beta", "gamma", "delta", "store", "epsilon"} <= names
    assert "zeta" not in names


def test_the_option_scan_sees_frozen_defaults_and_keywords(tmp_path):
    source = tmp_path / "config.py"
    source.write_text(
        "@dataclass(frozen=True)\n"
        "class Knobs:\n"
        "    required: int\n"
        "    alpha: int = 1\n"
        "    beta: list = field(default_factory=list)\n"
        "    gamma: ClassVar[float] = 2.0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Other:\n"
        "    delta: int = 0\n"
        "@dataclass\n"
        "class Mutable:\n"
        "    epsilon: int = 0\n"
        "replace(knobs, alpha=2, **extra)\n"
    )
    assert [qualified for qualified, *_ in options(source)] == ["Knobs.alpha", "Knobs.beta", "Other.delta"]
    assert {name for name, _ in keywords(source)} == {"frozen", "default_factory", "alpha"}
