"""Shared experiment-result plumbing.

Every experiment module exposes ``run() -> ExperimentResult`` (see
:mod:`repro.experiments` for the four that take keywords); the
result carries the table/series the paper's figure reports plus notes on
paper-vs-measured agreement.  ``python -m repro.experiments <id>`` prints
them, and ``tests/golden/<id>.txt`` pins every one byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import ExperimentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.usecases import UseCase
    from repro.packet.fields import FlowKey

__all__ = ["ExperimentResult", "benign_keys", "format_cell"]


def benign_keys(use_case: "UseCase", n: int) -> "list[FlowKey]":
    """Packets the ACL admits (one per allow rule, varied source ports).

    The benign traffic mix the §7 comparison and the backend sweep probe
    their classifiers with, before and after an attack.
    """
    import numpy as np

    from repro.packet.fields import FlowKey
    from repro.packet.headers import PROTO_TCP

    rng = np.random.default_rng(0)
    keys = []
    for index in range(n):
        field = use_case.allow_fields[index % len(use_case.allow_fields)]
        kwargs = {"ip_proto": PROTO_TCP, field: use_case.allow_value(field)}
        if field != "tp_src":
            kwargs["tp_src"] = int(rng.integers(1024, 65536))
        keys.append(FlowKey(**kwargs))
    return keys


def format_cell(value: object) -> str:
    """Render one table cell (floats get sensible precision)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class ExperimentResult:
    """One reproduced table or figure.

    Attributes:
        experiment_id: short id (``fig9a``, ``section54``, …).
        title: human-readable description.
        paper_reference: which figure/table/section of the paper this
            regenerates.
        columns: column headers.
        rows: table rows (tuples aligned with ``columns``).
        notes: paper-vs-measured commentary, modelling caveats.
    """

    experiment_id: str
    title: str
    paper_reference: str
    columns: Sequence[str]
    rows: list[tuple] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ExperimentError(
                f"{self.experiment_id}: row has {len(values)} cells, "
                f"expected {len(self.columns)}"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        """All values of one column."""
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise ExperimentError(
                f"{self.experiment_id}: no column {name!r}; have {list(self.columns)}"
            ) from None
        return [row[index] for row in self.rows]

    def format_table(self) -> str:
        """Aligned text rendering (what the CLI prints and the goldens pin)."""
        cells = [[format_cell(v) for v in row] for row in self.rows]
        headers = [str(c) for c in self.columns]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            f"== {self.experiment_id}: {self.title}",
            f"   (reproduces {self.paper_reference})",
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: str | Path) -> Path:
        """Write the rendered table to ``<directory>/<id>.txt``; return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.txt"
        path.write_text(self.format_table() + "\n")
        return path
