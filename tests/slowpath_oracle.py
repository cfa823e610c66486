"""The slow-path oracle: the chunked decision procedure, one chunk at a time.

``generate`` and ``generate_batch`` run one compiled program (a step per
constrained field, the first disagreeing chunk found by bit arithmetic),
so comparing them with each other proves nothing about it.  This module is
what the program is held against: the literal per-chunk walk of the
module docstring of :mod:`repro.classifier.slowpath` — rules in priority
order, each constrained field's chunks un-wildcarded MSB-first until the
first disagreeing one.  Chunking itself is read from the generator's
``_chunks``, the one definition of it.  :class:`SlowPathOracle` rides
along a whole test: it wraps both entry points and checks every result
they hand out — mask, masked key, action, source rule, matched rule and
``rules_examined``; the ``slowpath_oracle`` fixture in ``conftest.py``
installs it and fails a test that intercepted nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.classifier.actions import DENY
from repro.classifier.slowpath import MegaflowGenerator
from repro.packet.fields import FIELD_ORDER

_INDEX = {name: i for i, name in enumerate(FIELD_ORDER)}


def reference(generator: MegaflowGenerator, key) -> tuple:
    """``(mask values, action, rule, rules_examined, source_rule)`` of the
    per-chunk walk of ``generator``'s table and strategy for ``key``."""
    mask_values = [0] * len(FIELD_ORDER)
    key_values = key.values
    rules_examined = 0
    for rule in generator.table.rules_by_priority():
        rules_examined += 1
        matched = True
        for field_name, rule_value, rule_mask in rule.match.constraints():
            idx = _INDEX[field_name]
            key_value = key_values[idx]
            for chunk in generator._chunks(field_name, rule_mask):
                mask_values[idx] |= chunk
                if (key_value ^ rule_value) & chunk:
                    matched = False
                    break
            if not matched:
                break
        if matched:
            return tuple(mask_values), rule.action, rule, rules_examined, rule.name
    # Table miss: every examined bit stays in the mask.
    return tuple(mask_values), DENY, None, rules_examined, "<table-miss>"


def assert_matches(generator: MegaflowGenerator, key, result, label="") -> None:
    """``result`` is field for field what the per-chunk walk gives ``key``."""
    mask_values, action, rule, rules_examined, source_rule = reference(generator, key)
    entry = result.entry
    assert entry.mask.values == mask_values, (label, key, entry.mask, mask_values)
    assert entry.key == tuple(v & m for v, m in zip(key.values, mask_values)), (label, key)
    assert entry.action == action, (label, key)
    assert entry.source_rule == source_rule, (label, key)
    assert result.rule is rule, (label, key)
    assert result.rules_examined == rules_examined, (label, key)


class SlowPathOracle:
    """Checks every ``generate`` / ``generate_batch`` result."""

    def __init__(self) -> None:
        self.results = 0  # per-key results checked

    def check(self, generator, key, result) -> None:
        assert_matches(generator, key, result)
        self.results += 1


@contextmanager
def ride_along() -> Iterator[SlowPathOracle]:
    """Install the oracle over both entry points for the block.

    Raises if the block generated nothing: an oracle that wraps nothing has
    checked nothing.
    """
    oracle = SlowPathOracle()
    scalar, batched = MegaflowGenerator.generate, MegaflowGenerator.generate_batch

    def generate(generator, key):
        result = scalar(generator, key)
        oracle.check(generator, key, result)
        return result

    def generate_batch(generator, keys):
        results = batched(generator, keys)
        for key, result in zip(keys, results, strict=True):
            oracle.check(generator, key, result)
        return results

    MegaflowGenerator.generate, MegaflowGenerator.generate_batch = generate, generate_batch
    try:
        yield oracle
    finally:
        MegaflowGenerator.generate, MegaflowGenerator.generate_batch = scalar, batched
    if oracle.results == 0:
        raise AssertionError("the slow-path oracle checked no generated result")
