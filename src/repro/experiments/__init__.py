"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes ``run() -> ExperimentResult``, which regenerates its
table at the paper's scenario.  Only ``fig8c`` (whose timeline the perf
harness resizes) and the three slowest sweeps (``cloudsweep``,
``migrationsweep``, ``rsssweep``, which the tests shorten) take keywords.
Run any of them from the command line::

    python -m repro.experiments <id> [--save DIR]
    python -m repro.experiments --list

IDs: didactic, fig8a, fig8b, fig8c, fig9a, fig9b, fig9c, section54,
section62, section7, table1, theorem41, theorem42, ipv6, comparison,
mfcguard, pmdsweep, backendsweep, cloudsweep, migrationsweep, rsssweep.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    backendsweep,
    cloudsweep,
    comparison,
    didactic,
    fig8a,
    fig8b,
    fig8c,
    fig9a,
    fig9b,
    fig9c,
    ipv6_quirk,
    mfcguard,
    migrationsweep,
    pmdsweep,
    rsssweep,
    section54,
    section62,
    section7,
    table1,
    theorem41,
    theorem42,
)
from repro.experiments.common import ExperimentResult

__all__ = ["EXPERIMENTS", "ExperimentResult"]

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "didactic": didactic.run,
    "fig8a": fig8a.run,
    "fig8b": fig8b.run,
    "fig8c": fig8c.run,
    "fig9a": fig9a.run,
    "fig9b": fig9b.run,
    "fig9c": fig9c.run,
    "section54": section54.run,
    "section62": section62.run,
    "section7": section7.run,
    "table1": table1.run,
    "theorem41": theorem41.run,
    "theorem42": theorem42.run,
    "ipv6": ipv6_quirk.run,
    "comparison": comparison.run,
    "mfcguard": mfcguard.run,
    "pmdsweep": pmdsweep.run,
    "backendsweep": backendsweep.run,
    "cloudsweep": cloudsweep.run,
    "migrationsweep": migrationsweep.run,
    "rsssweep": rsssweep.run,
}
