"""Golden outputs: every experiment id, byte for byte.

``tests/golden/<id>.txt`` is ``ExperimentResult.save`` output.  Each file
was generated at the commit *before* the refactor that could have moved it
(the Fig. 7 netsim experiments: before :mod:`repro.experiments.scenario`;
``cloudsweep``: before settlement collapsed onto one pass; the twelve paper
tables and figures added last: before their detonations moved onto
``process_batch``), so ``format_table()`` must stay byte-identical.
Everything runs at its CLI defaults except ``migrationsweep`` /
``rsssweep`` (~18 s each at defaults), which run a SipDp-sized detonation
that still walks every branch — guard deletions, a backend swap, four
re-maps — and ``cloudsweep``, which runs both plans over a 2 x 3 x 100
fleet, the only experiment on the fleet settlement path.

The ``golden_run`` fixture (``tests/conftest.py``) simulates each id once
per session; ``tests/test_experiments.py`` asserts the paper's shapes on
the same results.

Regenerate (only when an experiment's output is *meant* to change)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.migration import MigrationPolicy
from repro.experiments import EXPERIMENTS

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES: dict[str, dict] = {
    "didactic": {},
    "table1": {},
    "theorem41": {},
    "theorem42": {},
    "section54": {},
    "section62": {},
    "section7": {},
    "fig9a": {},
    "fig9b": {},
    "fig9c": {},
    "ipv6": {},
    "comparison": {},
    "fig8a": {},
    "fig8b": {},
    "fig8c": {},
    "mfcguard": {},
    "pmdsweep": {},
    "backendsweep": {},
    "migrationsweep": dict(
        use_case_name="SipDp",
        duration=20.0,
        attack_start=2.0,
        attack_stop=17.0,
        # SipDp detonates ~513 probe units: the sweep's 512 would sit on the edge.
        migration_policy=MigrationPolicy(cost_threshold=128.0),
    ),
    "cloudsweep": dict(
        n_racks=2,
        hosts_per_rack=3,
        tenants_per_host=100,
        duration=12.0,
        attack_start=2.0,
        attack_stop=10.0,
    ),
    "rsssweep": dict(
        use_case_name="SipDp",
        duration=24.0,
        attack_start=2.0,
        attack_stop=22.0,
        round_period=5.0,
    ),
}


def test_every_experiment_is_pinned():
    assert set(CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_output_matches_golden(experiment_id, golden_run):
    golden = (GOLDEN_DIR / f"{experiment_id}.txt").read_text()
    assert golden_run(experiment_id).format_table() + "\n" == golden


if __name__ == "__main__":  # pragma: no cover
    for experiment_id, params in CASES.items():
        print(EXPERIMENTS[experiment_id](**params).save(GOLDEN_DIR))
