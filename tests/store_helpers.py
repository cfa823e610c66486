"""Whole-store helpers the tests need and the program does not.

Each is written over the public :class:`~repro.classifier.backend.MegaflowStore`
surface (``batch_scanner``, ``entries``, ``remove_entries``), so it holds for every
backend without a member of its own; :func:`migrate` drives a datapath's
``migrate_backend_*`` surface the way the migration controller does.
"""

from __future__ import annotations

from repro.exceptions import CacheInvariantError


def lookup_batch(store, keys, now: float = 0.0) -> tuple:
    """Every key's lookup result from *one* batch scanner, in order.

    Not ``[store.lookup(k) for k in keys]``: one scanner planned over the
    whole batch is the path the batch ≡ sequential differentials compare
    with per-key ``lookup``.
    """
    keys = list(keys)
    scanner = store.batch_scanner(keys, now)
    return tuple(scanner.result(i) for i in range(len(keys)))


def migrate(datapath, target_kind: str, shard_ids=None) -> list:
    """Rebuild and swap each shard's cache (every shard, or those in
    ``shard_ids``) to ``target_kind`` in one go, under ``maintenance()``:
    start, then swap, which finishes the copy.  Returns every shard's
    snapshot afterwards, by shard id."""
    with datapath.maintenance():
        for shard_id, shard in enumerate(datapath.shards):
            if shard_ids is None or shard_id in shard_ids:
                shard.migrate_backend_start(target_kind)
                shard.migrate_backend_swap()
        return [shard.snapshot() for shard in datapath.shards]


def verify_disjoint(store) -> None:
    """Assert Inv(2) over the whole store (O(|C|^2))."""
    entries = list(store.entries())
    for i, first in enumerate(entries):
        for second in entries[i + 1 :]:
            if first.overlaps(second):
                raise CacheInvariantError(f"Inv(2) violation between {first!r} and {second!r}")


def remove_where(store, predicate) -> list:
    """Remove and return every entry satisfying ``predicate``, in
    ``entries()`` order (mask scan order, then insertion)."""
    return store.remove_entries([entry for entry in store.entries() if predicate(entry)])


def idle_entries(store, now: float, idle_timeout: float) -> list:
    """Every entry unused for at least ``idle_timeout`` seconds, in
    ``entries()`` order: the full scan an idle sweep may skip."""
    return [entry for entry in store.entries() if now - entry.last_used >= idle_timeout]
