"""Fig. 9b — expected (E) vs measured (M) MFC masks under General TSE.

For each use case the paper sends n ∈ {10 … 50,000} uniformly random
packets at an unknown ACL and compares the measured mask count (averaged
over runs) with the expectation of Eq. 2 / §11.3.  We reproduce both: the
E lines come from :mod:`repro.core.analysis`, the M lines from replaying
seeded random traces through the real megaflow generation.

The paper's headline numbers (maximum attainable with 50k packets):
Dp ≈ 16, SpDp ≈ 121, SipDp ≈ 122, SipSpDp ≈ 581 — and SpDp ≈ SipDp, which
is why the paper drops the SpDp curve "for brevity" (we keep it).
"""

from __future__ import annotations

from typing import Sequence

from repro.classifier.slowpath import WILDCARDING, MegaflowGenerator
from repro.core.analysis import expected_masks
from repro.core.general import GeneralTraceGenerator
from repro.core.usecases import DP, SIPDP, SIPSPDP, SPDP, UseCase
from repro.experiments.common import ExperimentResult
from repro.packet.headers import PROTO_TCP

__all__ = ["run", "PACKET_COUNTS", "RUNS", "measured_masks"]

PACKET_COUNTS: tuple[int, ...] = (
    10, 17, 50, 100, 260, 516, 1000, 5000, 10000, 50000,
)
USE_CASES = (DP, SPDP, SIPDP, SIPSPDP)
RUNS = 3  # Monte Carlo runs per use case, seeded 0, 1000, 2000


def measured_masks(use_case: UseCase, packet_counts: Sequence[int]) -> list[float]:
    """Monte Carlo: masks spawned by n random packets (mean over ``RUNS`` runs).

    A single pass per run: random keys stream through the megaflow
    generator and the distinct-mask set is checkpointed at each requested
    count (equivalent to, and much faster than, a full cache replay —
    lookup hits cannot create masks).
    """
    checkpoints = sorted(packet_counts)
    table = use_case.build_table()
    totals = [0.0] * len(checkpoints)
    for run_index in range(RUNS):
        generator = MegaflowGenerator(table, WILDCARDING)
        source = GeneralTraceGenerator(
            fields=use_case.allow_fields,
            base={"ip_proto": PROTO_TCP},
            seed=1000 * run_index,
        )
        masks: set = set()
        sent = 0
        for target_index, target in enumerate(checkpoints):
            for key in source.keys(target - sent):
                masks.add(generator.generate(key).entry.mask)
            sent = target
            totals[target_index] += len(masks)
    means = [total / RUNS for total in totals]
    order = {n: i for i, n in enumerate(checkpoints)}
    return [means[order[n]] for n in packet_counts]


def run() -> ExperimentResult:
    """Regenerate the Fig. 9b E/M curves."""
    result = ExperimentResult(
        experiment_id="fig9b",
        title=f"expected (E) vs measured (M, {RUNS} runs) MFC masks, random packets",
        paper_reference="Fig. 9b (§6.2)",
        columns=["packets"]
        + [f"{uc.name}_{kind}" for uc in USE_CASES for kind in ("E", "M")],
    )
    expectations = {
        uc.name: [expected_masks(uc.field_widths(), n) for n in PACKET_COUNTS]
        for uc in USE_CASES
    }
    measurements = {
        uc.name: measured_masks(uc, PACKET_COUNTS)
        for uc in USE_CASES
    }
    for index, n in enumerate(PACKET_COUNTS):
        row: list[object] = [n]
        for uc in USE_CASES:
            row.append(round(expectations[uc.name][index], 1))
            row.append(round(measurements[uc.name][index], 1))
        result.add_row(*row)

    largest = max(PACKET_COUNTS)
    summary = ", ".join(
        f"{uc.name} E={expectations[uc.name][-1]:.0f}/M={measurements[uc.name][-1]:.0f}"
        for uc in USE_CASES
    )
    result.notes.append(f"at n={largest}: {summary}")
    result.notes.append("paper at n=50,000: Dp ~16, SpDp ~121, SipDp ~122, SipSpDp ~581")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
