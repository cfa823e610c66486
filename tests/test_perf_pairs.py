"""``tools/perf_pairs.py``'s verdict rule, on synthetic readings (no clock)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs", Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]  # IQR 2.0


def shifted(by: float, values=PARENT) -> list[float]:
    return [value + by for value in values]


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        (shifted(+5.0), "higher", 0.25, ("better", 10)),
        (shifted(-5.0), "lower", 0.25, ("better", 10)),
        # Wins every pair, but the medians are closer than the parent's IQR.
        (shifted(+1.0), "higher", 0.25, ("ok", 10)),
        # Well apart, but only 8 of 10 pairs won.
        ([p + 5.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]], "higher", 0.25, ("ok", 8)),
        # Ties count for neither side: 8 wins + 2 ties is not nine tenths.
        ([p + 5.0 for p in PARENT[:8]] + PARENT[8:], "higher", 0.25, ("ok", 8)),
        (shifted(-5.0), "higher", 0.25, ("ok", 0)),
        (shifted(-30.0), "higher", 0.25, ("REGRESSION", 0)),
        (shifted(+30.0), "lower", 0.25, ("REGRESSION", 0)),
        (shifted(+10.0), "lower", 0.15, ("ok", 0)),
    ],
)
def test_verdict(change, better, bound, expected):
    assert perf_pairs.verdict(PARENT, change, better, bound) == expected


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 160.0, 70.0, 150.0, 60.0, 140.0, 80.0, 130.0, 90.0, 120.0]  # IQR 52.5 on 105
    assert perf_pairs.verdict(noisy, shifted(+2.0, noisy), "higher", 0.25) == ("unresolved", 10)
    # Either side's spread counts.
    assert perf_pairs.verdict(PARENT, noisy, "higher", 0.25)[0] == "unresolved"
    # A clear gain over a noisy parent is still a gain ...
    assert perf_pairs.verdict(noisy, shifted(+200.0, noisy), "higher", 0.25) == ("better", 10)
    # ... and a regression still a regression.
    assert perf_pairs.verdict(noisy, shifted(-50.0, noisy), "higher", 0.25) == ("REGRESSION", 0)
    # Unless every run of the change reads better than every run of the
    # parent: here the medians are closer than the parent's (lopsided) IQR,
    # so it is no gain by the rule, but it is resolved.
    lopsided = [10.0, 20.0, 30.0, 40.0, 50.0, 99.0, 99.5, 100.0, 100.2, 100.4]
    assert perf_pairs.verdict(lopsided, [101.0 + i / 10 for i in range(10)], "higher", 0.25) == ("ok", 10)


def test_table_rows_and_single_pair():
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]
    readings = {
        "parent": {"warm_replay": {"ops_per_s": [42_000.0]}},
        "change": {"warm_replay": {"ops_per_s": [50_000.0]}},
    }
    lines = perf_pairs.table(readings, metrics)
    assert lines[2] == (
        "| warm_replay | ops_per_s | 4.2e+04 [4.2e+04, 4.2e+04] | 5e+04 [5e+04, 5e+04] | 1.190 | 1/1 | better |"
    )


def test_a_clock_at_its_resolution_floor_has_no_ratio():
    zeros = [0.0] * 10
    assert perf_pairs.verdict(zeros, zeros, "lower", 0.25) == ("ok", 0)
    assert perf_pairs.verdict(zeros, [0.0] * 5 + [0.1] * 5, "lower", 0.25) == ("unresolved", 0)
    lines = perf_pairs.table(
        {"parent": {"table1": {"finished_in_s": zeros}}, "change": {"table1": {"finished_in_s": zeros}}},
        [{"name": "finished_in_s", "better": "lower", "bound": 0.25}],
    )
    assert lines[2] == "| table1 | finished_in_s | 0 [0, 0] | 0 [0, 0] | nan | 0/10 | ok |"
