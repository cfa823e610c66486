"""§6.2 in-text numbers — General TSE efficiency at fixed packet budgets.

The paper evaluates the random-trace attack at two budgets: 1,000 packets
(the budget that suffices for a full Co-located SipDp teardown, ~0.67 Mbps)
and 50,000 packets (where the expected mask counts saturate).  For each
budget and use case it quotes the victim capacity left, per NIC profile.
"""

from __future__ import annotations

from repro.core.analysis import expected_masks
from repro.core.usecases import DP, SIPDP, SIPSPDP, SPDP
from repro.experiments.common import ExperimentResult
from repro.experiments.fig9b import RUNS, measured_masks
from repro.switch.calibration import fit_profile
from repro.switch.offload import FHO_TCP, GRO_OFF_TCP, GRO_ON_TCP, UDP_PROFILE

__all__ = ["run", "PAPER_NUMBERS"]

# §6.2: % of full capacity at 50k and 1k random packets —
# (GRO OFF, GRO ON, FHO, UDP) per use case.
PAPER_NUMBERS = {
    (50000, "Dp"): (52.0, 97.0, 88.0, 60.0),
    (50000, "SipDp"): (12.0, 96.0, 87.0, 15.8),
    (50000, "SipSpDp"): (1.0, 73.5, 25.5, 3.25),
    (1000, "Dp"): (72.8, 99.15, 91.25, 77.28),
    (1000, "SipDp"): (25.4, 96.8, 87.95, 32.35),
    (1000, "SipSpDp"): (11.7, 95.8, 87.0, 12.5),
}


def run() -> ExperimentResult:
    """Regenerate the §6.2 capacity-retention table."""
    curves = {
        "gro_off": fit_profile(GRO_OFF_TCP),
        "gro_on": fit_profile(GRO_ON_TCP),
        "fho": fit_profile(FHO_TCP),
        "udp": fit_profile(UDP_PROFILE),
    }
    result = ExperimentResult(
        experiment_id="section62",
        title=f"General TSE at fixed budgets ({RUNS}-run Monte Carlo + Eq. 2)",
        paper_reference="§6.2 in-text numbers",
        columns=[
            "packets", "use_case", "masks_measured", "masks_expected",
            "gro_off_pct", "gro_on_pct", "fho_pct", "udp_pct",
            "paper_gro_off", "paper_udp",
        ],
    )
    counts = (1000, 50000)
    for use_case in (DP, SPDP, SIPDP, SIPSPDP):
        measured = measured_masks(use_case, counts)
        for n, masks in zip(counts, measured):
            expected = expected_masks(use_case.field_widths(), n)
            paper = PAPER_NUMBERS.get((n, use_case.name))
            result.add_row(
                n,
                use_case.name,
                round(masks, 1),
                round(expected, 1),
                round(100 * curves["gro_off"].fraction(masks), 1),
                round(100 * curves["gro_on"].fraction(masks), 1),
                round(100 * curves["fho"].fraction(masks), 1),
                round(100 * curves["udp"].fraction(masks), 1),
                paper[0] if paper else float("nan"),
                paper[3] if paper else float("nan"),
            )
    result.notes.append(
        "1,000 random packets ≈ the Co-located budget that tears down OVS (0.67 Mbps); "
        "General TSE needs 50x more packets to approach the same mask counts"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
