"""Theorem 4.2 — the multi-field space–time trade-off.

With per-field chunk counts ``k_i`` the bounds multiply: lookup time
``prod k_i`` masks, space ``prod k_i·(2^(w_i/k_i) − 1)`` entries.  The
harness sweeps representative ``(k_1, k_2, k_3)`` choices on the Fig. 6
field widths (16, 32, 16) and checks the constructive closed form against
a real cache built on scaled-down widths.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from repro.classifier.actions import ALLOW
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.classifier.slowpath import MegaflowGenerator, StrategyConfig
from repro.classifier.tss import TupleSpaceSearch
from repro.core.complexity import constructive_cost_multi, theorem42_bound
from repro.experiments.common import ExperimentResult
from repro.packet.fields import FlowKey

__all__ = ["run", "build_cache_multi"]


def build_cache_multi(widths: Sequence[int], ks: Sequence[int]) -> TupleSpaceSearch:
    """Exhaustively build the multi-field k-chunk cache (small widths only).

    Fields map to the top bits of tp_dst / ip_src / tp_src, mirroring the
    Fig. 6 priority order.
    """
    field_names = ("tp_dst", "ip_src", "tp_src")
    full_widths = (16, 32, 16)
    table = FlowTable()
    priority = 30
    masks_values = []
    for name, width, full in zip(field_names, widths, full_widths):
        field_mask = ((1 << width) - 1) << (full - width)
        allow_value = 1 << (full - width)
        masks_values.append((name, field_mask, full - width))
        table.add_rule(Match(**{name: (allow_value, field_mask)}), ALLOW,
                       priority=priority, name=f"allow-{name}")
        priority -= 10
    table.add_default_deny()
    strategy = StrategyConfig(
        field_chunks={name: k for (name, _m, _s), k in zip(masks_values, ks)}
    )
    generator = MegaflowGenerator(table, strategy)
    cache = TupleSpaceSearch()
    for combo in product(*(range(1 << w) for w in widths)):
        key = FlowKey(**{
            name: value << shift
            for (name, _m, shift), value in zip(masks_values, combo)
        })
        cache.insert(generator.generate(key).entry)
    return cache


def run() -> ExperimentResult:
    """Regenerate the Theorem 4.2 trade-off table (Fig. 6 widths)."""
    widths, check_widths = (16, 32, 16), (4, 5, 4)  # Fig. 6; the exhaustive check's scale
    result = ExperimentResult(
        experiment_id="theorem42",
        title=f"Theorem 4.2 trade-offs on fields {tuple(widths)}",
        paper_reference="Theorem 4.2 / §4.2",
        columns=["k1", "k2", "k3", "time_masks", "bound_entries", "constructive_entries"],
    )
    choices = [
        (1, 1, 1),
        (widths[0], 1, 1),
        (4, 4, 4),
        (widths[0], widths[1], widths[2]),
    ]
    for ks in choices:
        bound = theorem42_bound(widths, ks)
        construct = constructive_cost_multi(widths, ks)
        result.add_row(*ks, construct.time, bound.space, construct.space)

    # Exhaustive validation at scaled-down widths.
    small_ks = tuple(min(2, w) for w in check_widths)
    cache = build_cache_multi(check_widths, small_ks)
    closed = constructive_cost_multi(check_widths, small_ks)
    result.notes.append(
        f"exhaustive check at widths {tuple(check_widths)}, k={small_ks}: built "
        f"{cache.n_masks} masks / {cache.n_entries} entries vs closed form "
        f"{closed.time} / {closed.space}"
    )
    result.notes.append(
        f"k_i = w_i (wildcarding) gives the paper's {widths[0]}*{widths[1]}*{widths[2]} = "
        f"{widths[0] * widths[1] * widths[2]} mask product — the SipSpDp explosion"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
