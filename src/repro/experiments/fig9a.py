"""Fig. 9a — victim throughput vs megaflow mask count, per NIC profile.

The paper sweeps the attainable mask counts of the §5.2 use cases and
plots the victim's TCP/UDP throughput under four NIC configurations (FHO,
GRO ON, GRO OFF, UDP), plus — on the secondary axis — the completion time
of a 1 GB TCP transfer with GRO OFF.

Here the sweep drives the calibrated cost model directly (the simulated
datapath produces the mask counts; the curves convert them to Gbps), and
each use case's tick (Dp/SpDp/SipDp/SipSpDp) is annotated like the paper's
x-axis labels.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.switch.costmodel import CostModel
from repro.switch.offload import FHO_TCP, GRO_OFF_TCP, GRO_ON_TCP, UDP_PROFILE

__all__ = ["run", "MASK_SWEEP", "USE_CASE_TICKS"]

MASK_SWEEP: tuple[int, ...] = (
    1, 2, 5, 10, 17, 50, 100, 260, 516, 1000, 2000, 4000, 8200,
)

# The x-tick annotations of Fig. 9a.
USE_CASE_TICKS = {17: "Dp", 260: "SpDp", 516: "SipDp", 8200: "SipSpDp"}


def run() -> ExperimentResult:
    """Regenerate the Fig. 9a curves.

    Returns one row per mask count: throughput (Gbps) per profile plus the
    1 GB flow completion time under GRO OFF.
    """
    models = {
        "fho_gbps": CostModel(profile=FHO_TCP, link_gbps=40.0),
        "gro_on_gbps": CostModel(profile=GRO_ON_TCP, link_gbps=10.0),
        "gro_off_gbps": CostModel(profile=GRO_OFF_TCP, link_gbps=10.0),
        "udp_gbps": CostModel(profile=UDP_PROFILE, link_gbps=10.0),
    }
    gro_off = models["gro_off_gbps"]

    result = ExperimentResult(
        experiment_id="fig9a",
        title="victim throughput vs #MFC masks (per NIC profile) + 1 GB FCT",
        paper_reference="Fig. 9a (§5.4)",
        columns=["mfc_masks", "use_case", "fho_gbps", "gro_on_gbps",
                 "gro_off_gbps", "udp_gbps", "fct_1gb_s"],
    )
    for masks in MASK_SWEEP:
        row = [masks, USE_CASE_TICKS.get(masks, "")]
        for model in models.values():
            row.append(round(model.victim_gbps(masks), 4))
        row.append(round(gro_off.flow_completion_seconds(1.0, masks), 2))
        result.add_row(*row)

    # Paper-vs-measured at the §5.4 anchor sentences.
    for masks, label in USE_CASE_TICKS.items():
        gro_on_pct = 100 * models["gro_on_gbps"].victim_fraction(masks)
        fho_pct = 100 * models["fho_gbps"].victim_fraction(masks)
        gro_off_pct = 100 * models["gro_off_gbps"].victim_fraction(masks)
        result.notes.append(
            f"{label} ({masks} masks): GRO ON {gro_on_pct:.0f}% / FHO {fho_pct:.0f}% / "
            f"GRO OFF {gro_off_pct:.1f}% of baseline"
        )
    result.notes.append(
        "paper §5.4: Dp 97/88/53%, SpDp 95/43/10%, SipDp 76/29/4.7%, SipSpDp 3.9/2.1/0.2%"
    )
    result.notes.append(
        "FCT grows roughly half as fast as the mask count (the victim's mask sits "
        "mid-scan on average), as the paper observes"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
