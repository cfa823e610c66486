"""The scan oracle: the paper's Algorithm 1 over the truth dicts, in Python.

``lookup`` is the one-key case of the batch scanner, so the megaflow scan
has one engine and comparing ``lookup`` with a batch scanner's results
proves nothing about it.  This module is what the engine is held against: a
linear walk of the store's scan-ordered mask list that probes each mask's
dict with the key's masked key and stops at the first entry (Inv(2): the
only one).  :class:`ScanOracle` rides along a whole test: it wraps the
scanners' entry points (TSS's ``_BatchScanner.hits``, which ``result`` and
``lookup`` go through, and the default ``LiveBatchScanner.result``) and
checks every per-key result they hand out — the entry by identity and,
for TSS, ``masks_inspected``; the ``scan_oracle`` fixture in
``conftest.py`` installs it and fails a test that intercepted nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.classifier.backend import LiveBatchScanner
from repro.classifier.tss import TupleSpaceSearch, _BatchScanner


def algorithm1(key, walk) -> tuple[object, int]:
    """(entry, masks inspected) of a linear scan: ``walk`` is a store's
    masks in scan order, each as (its value tuple, its dict); each dict is
    probed with the key's masked key over every field, and the first hit
    wins."""
    values = key.values
    for index, (mask_values, table) in enumerate(walk):
        entry = table.get(tuple([value & bits for value, bits in zip(values, mask_values)]))
        if entry is not None:
            return entry, index + 1
    return None, len(walk)


class ScanOracle:
    """Checks every scanner result against :func:`algorithm1`."""

    def __init__(self) -> None:
        self.results = 0  # per-key results checked
        # id(store) -> (store, its _order_seq, masks walked, walk): stores
        # append masks far more often than they remove or reorder any (which
        # bumps _order_seq), so a walk is extended, not re-derived.
        self._walks: dict[int, tuple] = {}

    def walk(self, store) -> list[tuple[tuple[int, ...], dict]]:
        """``store``'s current scan order, read from its truth dicts."""
        order, seq = store._mask_order, store._order_seq
        _, walked_seq, masks, walk = self._walks.get(id(store), (store, seq, [], []))
        if walked_seq != seq or masks != order[: len(masks)]:
            walk = []
        walk.extend((mask.values, store._tables[mask]) for mask in order[len(walk):])
        self._walks[id(store)] = (store, seq, list(order), walk)
        return walk

    def check(self, store, key, result) -> None:
        entry, inspected = algorithm1(key, self.walk(store))
        assert result.entry is entry, (key, result, entry)
        if isinstance(store, TupleSpaceSearch):
            assert result.masks_inspected == inspected, (key, result, inspected)
        self.results += 1


@contextmanager
def ride_along() -> Iterator[ScanOracle]:
    """Install the oracle over both scanners for the block.

    Raises if the block settled no key: an oracle that wraps nothing has
    checked nothing.
    """
    oracle = ScanOracle()
    planned, live = _BatchScanner.hits, LiveBatchScanner.result

    def hits(scanner, i, stop):
        run = planned(scanner, i, stop)
        for offset, result in enumerate(run):
            oracle.check(scanner.tss, scanner.keys[i + offset], result)
        return run

    def result(scanner, i, now=None):
        found = live(scanner, i, now)
        oracle.check(scanner.backend, scanner.keys[i], found)
        return found

    _BatchScanner.hits, LiveBatchScanner.result = hits, result
    try:
        yield oracle
    finally:
        _BatchScanner.hits, LiveBatchScanner.result = planned, live
    if oracle.results == 0:
        raise AssertionError("the scan oracle checked no scanner result")
