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
    "classifier.rule:Match.from_constraints": ("test_rule::TestMatch::test_from_constraints",),
    "classifier.rule:Match.n_constrained_bits": ("test_rule::TestMatch::test_n_constrained_bits",),
    "classifier.rule:Match.example_key": ("test_rule::TestMatch::test_example_key_satisfies",),
    "classifier.rule:Match.enumerate_keys": (
        "test_rule::TestMatch::test_enumerate_keys_small",
        "test_rule::TestMatch::test_enumerate_keys_limit",
    ),
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
    "core.tracegen:bit_inversion_list": (
        "test_backend::test_eviction_outcomes_identical",
        "test_revalidator::TestFlowLimitPressure::test_lru_evicted_above_limit",
        "test_slowpath::TestIPv6Quirk::test_wildcarding_on_ipv6_for_contrast",
        "test_tracegen::TestBitInversion::test_paper_fig1_trace",
        "test_tracegen::TestBitInversion::test_respects_mask",
        "test_tracegen::TestBitInversion::test_length_is_width_plus_one",
    ),
    "packet.fields:FieldDef.bit_mask": ("test_fields::TestPrefixAndBits::test_bit_mask_positions",),
    "packet.fields:prefix_mask": (
        "test_fields::TestPrefixAndBits::test_prefix_mask_msb_anchored",
        "test_fields::TestPrefixAndBits::test_prefix_mask_out_of_range",
        "test_properties::test_prefix_mask_shape",
    ),
    "packet.fields:first_diff_bit": (
        "test_fields::TestPrefixAndBits::test_first_diff_bit",
        "test_fields::TestPrefixAndBits::test_first_diff_bit_respects_width",
    ),
    "packet.fields:FlowMask.with_bits": ("test_fields::TestFlowMask::test_with_bits",),
    "packet.fields:FlowMask.covers": ("test_fields::TestFlowMask::test_covers",),
    "packet.fields:FlowMask.is_exact": ("test_fields::TestFlowMask::test_exact_and_wildcard",),
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


def uncalled() -> list[str]:
    """Qualified names (``module:name``) that no caller file reaches."""
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path in (path for root in CALLER_ROOTS for path in sorted((REPO / root).rglob("*.py"))):
        for name, line in references(path):
            seen.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for qualified, name, first, last in definitions(path):
            called = any(
                where != path or not first <= line <= last for where, line in seen.get(name, ())
            )
            if not called:
                dead.append(f"{module}:{qualified}")
    return dead


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(ALLOWED) - set(PINNED_BY_TESTS)) == []


def test_every_listed_name_exists_and_is_still_uncalled():
    assert sorted((set(ALLOWED) | set(PINNED_BY_TESTS)) - set(uncalled())) == []
    tests = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{path.stem}::{node.name}::" if isinstance(node, ast.ClassDef) else f"{path.stem}::"
            tests.update(prefix + member.name for member in members if isinstance(member, ast.FunctionDef))
    assert sorted({test for pinned in PINNED_BY_TESTS.values() for test in pinned} - tests) == []


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
