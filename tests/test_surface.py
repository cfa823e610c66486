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

And for parameters: every defaulted parameter of a public top-level
function, or of a public method or ``__init__`` of a public top-level
class, must be passed by some call in a caller file, outside its own def
— by keyword, by position (a method's index leaves out ``self``) or
through a ``*`` / ``**`` splat.  A module-level function is matched by its
module (a bare call in that module, a ``from M import f`` name, ``mod.f``),
so ``simulation.run(100.0)`` passes nothing to an experiment's ``run``;
methods and constructors are matched by name, a subclass's name counting
for an inherited ``__init__``.  In both scans a literal equal to the
default passes nothing: it restates the default.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CALLER_ROOTS = ("src", "examples", "benchmarks/perf")

# Names and parameters that stay without a caller the match can see, each
# with why: one reached in a way the match cannot see (a callable held in a
# variable or a registry), or safety code on a production path.
ALLOWED: dict[str, str] = {
    "netsim.engine:Simulation.__init__.mode": (
        'benchmarks/perf passes mode="event", restating the one schedule; the harness is frozen'
    ),
    "netsim.fleet:Fleet.__init__.rack_period": (
        "benchmarks/perf passes rack_period=1.0, restating the default; the harness is frozen"
    ),
    "switch.rss:five_tuple_hash.salt": "RssDispatcher.queue_of calls it as self.hash_fn(key, self.salt)",
    "switch.rss:uniform_key_hash.salt": "RssDispatcher.queue_of calls it as self.hash_fn(key, self.salt)",
    "switch.executor:ShardHandle.__init__.prefix": (
        "a handle builds its .megaflows sub-handle inside its own __init__ (the process executor, ROADMAP item 1b)"
    ),
    "switch.executor:ProcessShardExecutor.__init__.workers": (
        "make_shard_executor builds it through the _SHARD_EXECUTORS registry (the process executor, ROADMAP item 1b)"
    ),
    "switch.executor:ProcessShardExecutor.__init__.transport": (
        "make_shard_executor builds it through the _SHARD_EXECUTORS registry (the process executor, ROADMAP item 1b)"
    ),
}

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
    # Small stores detonate far fewer than the 100-mask default.
    "core.mitigation:MFCGuardConfig.mask_threshold": (
        "test_shard::TestGuardAndRevalidatorOnShards::test_guard_cleans_every_shard",
        "test_executor::TestManagementPlane::test_guard_cleans_worker_shards",
        "test_rebalance::TestRemapRaces::test_guard_sweep_concurrent_with_rekey",
        "test_migration::TestSwapUnderExecutors::test_swap_with_concurrent_maintenance",
        "test_migration::TestMigrationController::test_arms_guard_stand_down",
        "test_mitigation::TestConfigValidation::test_bad_thresholds",
    ),
    # SipDp-sized stores concentrate below the 64-unit default.
    "core.rebalance:RebalancePolicy.cost_floor": (
        "test_decision_log::test_rekeys_and_moves_match_the_datapath",
        "test_rebalance::TestRebalanceController::test_each_report_counts_its_own_run",
        "test_rebalance::TestRebalanceController::test_policy_validation",
        "test_rebalance::TestDpctlAndWiring::test_game_recovers_the_victim_and_tracks_its_home",
    ),
}


# The three slowest sweeps, shortened: test_golden's CASES (and a cloudsweep
# smoke run) pass these keywords through the EXPERIMENTS registry.
_SHORTENED_SWEEPS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "cloudsweep": (
        ("n_racks", "hosts_per_rack", "tenants_per_host", "duration", "attack_start", "attack_stop"),
        (
            "test_experiments::TestScaleOutSweeps::test_cloudsweep_concentrated_plan_sinks_its_host_only",
            "test_fleet::TestCloudsweepExperiment::test_smoke_run",
        ),
    ),
    "migrationsweep": (
        ("use_case_name", "duration", "attack_start", "attack_stop", "migration_policy"),
        ("test_experiments::TestScaleOutSweeps::test_migrationsweep_recovers_during_the_attack",),
    ),
    "rsssweep": (
        ("use_case_name", "duration", "attack_start", "attack_stop", "round_period"),
        ("test_experiments::TestScaleOutSweeps::test_rsssweep_rekeying_lifts_the_round_tail_floor",),
    ),
}

# Parameters no production caller passes that tests do, to reach behaviour
# at test scale, each with those tests.  Rows may only be deleted, never
# added.
PARAMETERS_FOR_TESTS: dict[str, tuple[str, ...]] = {
    **{
        f"experiments.{sweep}:run.{name}": ("test_golden::test_output_matches_golden", *shape_tests)
        for sweep, (names, shape_tests) in _SHORTENED_SWEEPS.items()
        for name in names
    },
    # A tenant-scoped table: the extra exact-match field must not multiply masks.
    "core.usecases:UseCase.build_table.ip_dst": (
        "test_usecases::TestTables::test_tenant_scoping",
        "test_tracegen::TestMultiHeader::test_pinned_base_prunes_scoped_fields",
        "test_tracegen::TestMultiHeader::test_unpinned_scoped_field_expands",
        "test_tracegen::TestEnumerationMatchesTheOracle::test_pinned_base_clash_and_retry",
        "test_pcap::test_attack_pcap_bytes_are_pinned",
    ),
    # Treads over ip_src rather than the most-constrained field the heuristic picks.
    "classifier.harp:HarpClassifier.__init__.primary_field": (
        "test_alt_classifiers::TestHarpSpecifics::test_explicit_primary_field",
        "test_alt_classifiers::TestHarpSpecifics::test_tread_rounding",
        "test_alt_classifiers::TestHarpSpecifics::test_cost_is_treads_plus_bucket_checks",
    ),
    # The salted vectorised hash against the scalar one; no fleet host is re-keyed.
    "switch.rss:five_tuple_hash_columns.salt": (
        "test_rebalance::TestSaltedHash::test_columns_match_scalar_for_every_salt",
        "test_rebalance::TestSaltedHash::test_columns_scalar_differential_property",
    ),
    # An executor built by the test; the process executor waits for ROADMAP item 1b.
    "switch.sharded:ShardedDatapath.__init__.executor": (
        "test_executor::TestShmTransport::test_oversized_batch_falls_back_to_pipe",
        "test_executor::TestShmTransport::test_worker_info_reports_transport_shards_and_pid",
    ),
    # A 4 KiB ring forces the pipe fallback.
    "switch.executor:ProcessShardExecutor.__init__.ring_bytes": (
        "test_executor::TestShmTransport::test_oversized_batch_falls_back_to_pipe",
    ),
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


ANY = object()  # a passed value the scan cannot read as a literal


def _literal(node: ast.expr):
    """The value of a literal expression, else ``ANY``."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return ANY


def _restates(value, default) -> bool:
    """A literal equal to the default passes nothing: the default holds it."""
    return value is not ANY and default is not ANY and type(value) is type(default) and value == default


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _name(node: ast.expr) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _dotted(path: Path, package: Path) -> str:
    parts = path.relative_to(package).with_suffix("").parts
    return ".".join((package.name, *(parts[:-1] if parts[-1] == "__init__" else parts)))


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


def options(path: Path) -> list[tuple[str, str, int, int, object]]:
    """``(qualified name, field, first line, last line, default)`` of every
    field with a default (``ClassVar`` constants aside) in each public
    frozen dataclass of one module; the lines are the class body's."""
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
                found.append((
                    f"{node.name}.{member.target.id}", member.target.id,
                    node.lineno, node.end_lineno, _literal(member.value),
                ))
    return found


def keywords(path: Path) -> list[tuple[str, int, object]]:
    """``(keyword, line, value)`` of every keyword argument one file passes."""
    return [
        (keyword.arg, node.lineno, _literal(keyword.value))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    ]


@functools.cache
def _index(package: Path):
    """What a call resolves against: each module's top-level names, each
    module's ``(module, local name) -> (module, name)`` imports, and each
    class's ``name -> (base names, defines __init__)``."""
    tops: dict[str, set[str]] = {}
    imported: dict[tuple[str, str], tuple[str, str]] = {}
    classes: dict[str, tuple[list[str], bool]] = {}
    for path in sorted(package.rglob("*.py")):
        dotted = _dotted(path, package)
        tree = ast.parse(path.read_text())
        tops[dotted] = {node.name for node in tree.body if isinstance(node, _DEFS)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imported[(dotted, alias.asname or alias.name)] = (node.module, alias.name)
            elif isinstance(node, ast.ClassDef):
                defines = any(isinstance(member, ast.FunctionDef) and member.name == "__init__" for member in node.body)
                classes[node.name] = ([_name(base) for base in node.bases], defines)
    return tops, imported, classes


def _origin(package: Path, module: str, name: str) -> tuple[str, str]:
    """Where ``module``'s ``name`` is defined, through re-exports."""
    tops, imported, _ = _index(package)
    while name not in tops.get(module, ()) and (module, name) in imported:
        module, name = imported[(module, name)]
    return module, name


def _inheritors(package: Path, name: str) -> list[str]:
    """``name`` and every subclass that inherits its ``__init__``."""
    classes = _index(package)[2]
    found = [name]
    for sub, (bases, defines) in classes.items():
        if name in bases and not defines:
            found.extend(_inheritors(package, sub))
    return found


def _defaulted(func, qualified: str, callees: list[tuple], offset: int) -> list[tuple]:
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    found = []
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None:
            keys = [(callee, key) for callee in callees for key in (arg.arg, index - offset, "*", "**")]
            found.append((f"{qualified}.{arg.arg}", keys, func.lineno, func.end_lineno, _literal(default)))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            keys = [(callee, key) for callee in callees for key in (arg.arg, "**")]
            found.append((f"{qualified}.{arg.arg}", keys, func.lineno, func.end_lineno, _literal(default)))
    return found


def parameters(path: Path, package: Path = PACKAGE) -> list[tuple[str, list, int, int, object]]:
    """``(qualified name, keys, first line, last line, default)`` of every
    defaulted parameter of a public top-level function, and of a public
    method or ``__init__`` of a public top-level class, in one module.  A
    key is ``(callee, keyword | index | "*" | "**")``, as ``passes`` sees
    it; the lines are the def's."""
    dotted = _dotted(path, package)
    found = []
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, _DEFS) and _is_public(node.name)):
            continue
        if not isinstance(node, ast.ClassDef):
            found.extend(_defaulted(node, node.name, [("fn", dotted, node.name)], 0))
            continue
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name == "__init__":
                callees = [("init", name) for name in _inheritors(package, node.name)]
            elif _is_public(member.name):
                callees = [("method", member.name)]
            else:
                continue
            static = any(ast.unparse(decorator) == "staticmethod" for decorator in member.decorator_list)
            found.extend(_defaulted(member, f"{node.name}.{member.name}", callees, 0 if static else 1))
    return found


def passes(path: Path, package: Path = PACKAGE) -> list[tuple[tuple, int, object]]:
    """``(key, line, value)`` of every argument one file passes.  The
    callee in a key is ``("fn", module, name)`` for a module-level function
    the file's imports resolve, ``("method", name)`` for any other
    attribute call and ``("init", class name)`` for a call by class name
    (``cls(...)`` and ``super().__init__(...)`` resolve to the enclosing
    class and its bases)."""
    tops = _index(package)[0]
    tree = ast.parse(path.read_text())
    modules: dict[str, str] = {}
    functions: dict[str, tuple[str, str]] = {}
    if path.is_relative_to(package):
        own = _dotted(path, package)
        functions.update({name: (own, name) for name in tops[own]})
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname: alias.name for alias in node.names if alias.asname})
        elif isinstance(node, ast.ImportFrom) and node.module in tops:
            for alias in node.names:
                local = alias.asname or alias.name
                if f"{node.module}.{alias.name}" in tops:
                    modules[local] = f"{node.module}.{alias.name}"
                else:
                    functions[local] = _origin(package, node.module, alias.name)
    scopes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        enclosing = [scope for scope in scopes if scope.lineno <= node.lineno <= scope.end_lineno][-1:]
        func = node.func
        if isinstance(func, ast.Name):
            callees = [("init", scope.name) for scope in enclosing] if func.id == "cls" else [("init", func.id)]
            if func.id in functions:
                callees.append(("fn", *functions[func.id]))
        elif isinstance(func, ast.Attribute):
            owner = ast.unparse(func.value)
            module = modules.get(owner, owner)
            if module in tops:
                callees = [("fn", *_origin(package, module, func.attr)), ("init", func.attr)]
            elif owner == "super()" and func.attr == "__init__":
                callees = [("init", _name(base)) for scope in enclosing for base in scope.bases]
            else:
                callees = [("method", func.attr), ("init", func.attr)]
        else:
            continue
        for callee in callees:
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    found.append(((callee, "*"), node.lineno, ANY))
                else:
                    found.append(((callee, index), node.lineno, _literal(arg)))
            for keyword in node.keywords:
                found.append(((callee, keyword.arg or "**"), node.lineno, _literal(keyword.value)))
    return found


def _unreached(found, scan, package: Path = PACKAGE, callers: list[Path] | None = None) -> list[str]:
    """``module:name`` of what ``found`` lists in ``package`` that no caller
    file reaches with ``scan``, outside its own definition.

    ``found(path)`` yields ``(qualified, keys, first, last, default)`` and
    ``scan(path)`` ``(key, line, value)``; a match on any of the keys counts
    unless its value is a literal restating the default."""
    if callers is None:
        callers = [path for root in CALLER_ROOTS for path in sorted((REPO / root).rglob("*.py"))]
    seen: dict[object, list[tuple[Path, int, object]]] = {}
    for path in callers:
        for key, line, value in scan(path):
            seen.setdefault(key, []).append((path, line, value))
    dead = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        for qualified, keys, first, last, default in found(path):
            called = any(
                (where != path or not first <= line <= last) and not _restates(value, default)
                for key in keys
                for where, line, value in seen.get(key, ())
            )
            if not called:
                dead.append(f"{module}:{qualified}")
    return dead


def uncalled() -> list[str]:
    """Qualified names (``module:name``) that no caller file reaches."""
    return _unreached(
        lambda path: [(qualified, [name], first, last, ANY) for qualified, name, first, last in definitions(path)],
        lambda path: [(name, line, ANY) for name, line in references(path)],
    )


def unset(package: Path = PACKAGE, callers: list[Path] | None = None) -> list[str]:
    """Options (``module:Class.field``) that no caller file passes."""
    return _unreached(
        lambda path: [(qualified, [name], *rest) for qualified, name, *rest in options(path)],
        keywords, package, callers,
    )


def unpassed(package: Path = PACKAGE, callers: list[Path] | None = None) -> list[str]:
    """Parameters (``module:function.name``, ``module:Class.method.name``)
    that no caller file passes."""
    return _unreached(
        functools.partial(parameters, package=package), functools.partial(passes, package=package),
        package, callers,
    )


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
    assert sorted(set(PINNED_BY_TESTS) - set(uncalled())) == []
    assert sorted(set(ALLOWED) - set(uncalled()) - set(unpassed())) == []
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
        "Other(delta=0)\n"
    )
    assert [qualified for qualified, *_ in options(source)] == ["Knobs.alpha", "Knobs.beta", "Other.delta"]
    assert {name for name, *_ in keywords(source)} == {"frozen", "default_factory", "alpha", "delta"}
    # Other(delta=0) restates the default: it sets nothing.
    assert unset(tmp_path, [source]) == ["config:Knobs.beta", "config:Other.delta"]


def test_every_parameter_is_passed_by_a_caller():
    assert sorted(set(unpassed()) - set(ALLOWED) - set(PARAMETERS_FOR_TESTS)) == []


def test_every_listed_parameter_exists_and_is_still_unpassed():
    assert sorted(set(PARAMETERS_FOR_TESTS) - set(unpassed())) == []
    assert sorted({test for setters in PARAMETERS_FOR_TESTS.values() for test in setters} - _test_names()) == []


def test_the_parameter_scan_resolves_callers(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "sweep.py").write_text(
        "def run(alpha=1, beta=2, gamma=3, delta=4, epsilon=5):\n"
        "    pass\n"
        "def cell(eta=7, theta=8):\n"
        "    pass\n"
        "def spread(a=1, b=2):\n"
        "    pass\n"
        "def opts(c=1):\n"
        "    pass\n"
        "class Engine:\n"
        "    def __init__(self, iota=10, kappa=11):\n"
        "        pass\n"
        "    def run(self, until=0.0, nu=9):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def pure(x=0, y=1):\n"
        "        pass\n"
        "class Fast(Engine):\n"
        "    pass\n"
        "cell(8)\n"  # a bare call in the module, by position
    )
    (package / "user.py").write_text(
        "from pkg import sweep\n"
        "from pkg.sweep import Fast, opts, run, spread\n"
        "import pkg.sweep as sw\n"
        "run(alpha=2)\n"  # from M import f, by keyword
        "sweep.run(beta=3)\n"  # mod.f
        "sw.run(gamma=4)\n"  # import M as alias
        "run(delta=4)\n"  # restates the default: passes nothing
        "Engine().run(1.0, epsilon=6)\n"  # a method: until by position, nothing for sweep.run
        "spread(*values)\n"
        "opts(**options)\n"
        "Fast(iota=12)\n"  # a subclass's name reaches the inherited __init__
        "Engine.pure(0, 5)\n"  # no self offset; x restates its default
    )
    callers = sorted(package.glob("*.py"))
    assert sorted(unpassed(package, callers)) == [
        "sweep:Engine.__init__.kappa",
        "sweep:Engine.pure.x",
        "sweep:Engine.run.nu",
        "sweep:cell.theta",
        "sweep:run.delta",
        "sweep:run.epsilon",
    ]
