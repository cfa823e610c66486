"""Whole-store helpers the tests need and the program does not.

Each is written over the public :class:`~repro.classifier.backend.MegaflowStore`
surface (``batch_scanner``, ``entries``, ``remove_entries``), so it holds for every
backend without a member of its own.
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
