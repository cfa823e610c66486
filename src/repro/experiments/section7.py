"""§7 in-text numbers — CMS expressiveness vs attainable tuple space.

The discussion section quantifies the attack surface each control plane
exposes: OpenStack/Kubernetes ingress policies (source IP + destination
port) admit 32·16 = 512 masks; Calico's source-port ingress rules push
that to 8192 ("already enough for a full-blown DoS"); Calico egress
policies add the destination IP for ~200 thousand masks.  This harness
computes those ceilings from the analytic model, plus the random-attack
expectation and the modelled victim throughput at each ceiling.
"""

from __future__ import annotations

from repro.core.analysis import attainable_masks, expected_masks
from repro.experiments.common import ExperimentResult
from repro.switch.calibration import fit_profile
from repro.switch.offload import GRO_OFF_TCP

__all__ = ["run", "SCENARIOS"]

# (label, paper quote, field widths in rule priority order)
SCENARIOS = (
    ("OpenStack/K8s ingress", "512 excess masks", (16, 32)),
    ("Calico ingress (+src port)", "8192 masks — full-blown DoS", (16, 32, 16)),
    ("Calico egress (+dst IP)", "~200 thousand masks", (16, 32, 16, 32)),
)
RANDOM_BUDGET = 50000  # packets of General TSE (§6.2's larger budget)


def run() -> ExperimentResult:
    """Regenerate the §7 expressiveness table."""
    curve = fit_profile(GRO_OFF_TCP)
    result = ExperimentResult(
        experiment_id="section7",
        title="CMS expressiveness vs attainable tuple space",
        paper_reference="§7 in-text numbers",
        columns=[
            "policy_surface", "paper_quote", "fields", "max_masks",
            f"expected_masks_{RANDOM_BUDGET}_random", "victim_pct_at_max",
        ],
    )
    for label, quote, widths in SCENARIOS:
        ceiling = attainable_masks(widths)
        expectation = expected_masks(widths, RANDOM_BUDGET)
        result.add_row(
            label,
            quote,
            "x".join(str(w) for w in widths),
            ceiling,
            round(expectation, 1),
            round(100 * curve.fraction(ceiling), 3),
        )
    result.notes.append(
        "ceilings are deny-mask products plus the allow-rule correction terms; "
        "the paper quotes the products (512 / 8192 / ~200k)"
    )
    result.notes.append(
        "victim % extrapolates the GRO OFF curve beyond its last anchor for the "
        "egress case — read it as 'effectively zero'"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
