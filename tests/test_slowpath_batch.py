"""Differential tests: batched slow-path generation ≡ scalar generation.

``MegaflowGenerator.generate_batch`` is a pure accelerator over the chunked
decision procedure: for any flow table, strategy, and burst of missed keys
it must return result-for-result what sequential ``generate`` calls return —
same entries, same order, same matched rules and ``rules_examined`` — while
the chunk-decision trie and exact-key memo behind it must be discarded on
every table mutation (dicts-as-truth: the ordered flow table is the only
source of classification truth).

The datapath half: under a small ``max_megaflows`` flow limit
``process_batch``'s batched upcall engine must reject, suppress, and
install exactly like the scalar engine (per-key ``process``) — across
serial, thread, and process executors.
"""

from __future__ import annotations

import random
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule, Match
from repro.classifier.slowpath import (
    EXACT_MATCH,
    OVS_DEFAULT,
    WILDCARDING,
    MegaflowGenerator,
)
from repro.packet.fields import FIELDS, FlowKey
from repro.switch.datapath import DatapathConfig
from repro.switch.sharded import ShardedDatapath

FIELD_POOL = ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto")
STRATEGIES = {"wildcarding": WILDCARDING, "exact": EXACT_MATCH, "ovs": OVS_DEFAULT}


# -- strategies -----------------------------------------------------------------

@st.composite
def prefix_constraints(draw):
    name = draw(st.sampled_from(FIELD_POOL))
    width = FIELDS[name].width
    plen = draw(st.integers(min_value=1, max_value=width))
    mask = ((1 << plen) - 1) << (width - plen)
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1)) & mask
    return name, value, mask


@st.composite
def rule_sets(draw, max_rules=6):
    n = draw(st.integers(min_value=1, max_value=max_rules))
    rules = []
    for index in range(n):
        constraints = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            name, value, mask = draw(prefix_constraints())
            constraints[name] = (value, mask)
        action = ALLOW if draw(st.booleans()) else DENY
        priority = draw(st.integers(min_value=0, max_value=5))
        rules.append(FlowRule(Match(**constraints), action, priority=priority, name=f"r{index}"))
    if draw(st.booleans()):
        rules.append(FlowRule(Match.any(), DENY, priority=-1, name="default"))
    return rules


@st.composite
def flow_keys(draw):
    kwargs = {}
    for name in FIELD_POOL:
        width = FIELDS[name].width
        kwargs[name] = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return FlowKey(**kwargs)


@st.composite
def key_bursts(draw, max_size=25):
    """Key lists with deliberate duplicates (the coalescing case)."""
    keys = draw(st.lists(flow_keys(), min_size=1, max_size=max_size))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        keys.append(keys[draw(st.integers(min_value=0, max_value=len(keys) - 1))])
    return keys


def assert_batch_equals_scalar(generator: MegaflowGenerator, keys, label=""):
    """generate_batch ≡ sequential generate, field for field, in order."""
    reference = MegaflowGenerator(generator.table, generator.strategy)
    scalar = [reference.generate(key) for key in keys]
    batched = generator.generate_batch(keys)
    assert len(batched) == len(scalar)
    for i, (a, b) in enumerate(zip(scalar, batched)):
        assert a.rules_examined == b.rules_examined, (label, i)
        assert a.rule is b.rule, (label, i)
        assert a.entry.mask == b.entry.mask, (label, i)
        assert a.entry.key == b.entry.key, (label, i)
        assert a.entry.action == b.entry.action, (label, i)
        assert a.entry.source_rule == b.entry.source_rule, (label, i)


# -- generate_batch ≡ generate --------------------------------------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=key_bursts(), strategy=st.sampled_from(sorted(STRATEGIES)))
def test_generate_batch_equivalent(rules, keys, strategy):
    """Batched ≡ scalar for random tables/bursts, all three strategies."""
    generator = MegaflowGenerator(FlowTable(rules=rules), STRATEGIES[strategy])
    assert_batch_equals_scalar(generator, keys, strategy)
    # A second pass answers from the memo/trie — still identical.
    assert_batch_equals_scalar(generator, keys, f"{strategy}/memoised")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=key_bursts(max_size=12), extra=prefix_constraints())
def test_trie_invalidated_on_table_mutation(rules, keys, extra):
    """Rule insert/remove/flush each discard the trie (dicts-as-truth)."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)
    assert_batch_equals_scalar(generator, keys, "initial")

    name, value, mask = extra
    added = FlowRule(Match(**{name: (value, mask)}), ALLOW, priority=9, name="added")
    table.add(added)
    assert_batch_equals_scalar(generator, keys, "after add")

    table.remove(added)
    assert_batch_equals_scalar(generator, keys, "after remove")

    table.clear()
    assert_batch_equals_scalar(generator, keys, "after clear")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), key=flow_keys(), copies=st.integers(min_value=2, max_value=30))
def test_duplicate_keys_coalesce(rules, key, copies):
    """A burst of one repeated key yields identical results per slot."""
    generator = MegaflowGenerator(FlowTable(rules=rules))
    results = generator.generate_batch([key] * copies)
    assert len(results) == copies
    first = generator.generate(key)
    for result in results:
        assert result.rules_examined == first.rules_examined
        assert result.rule is first.rule
        assert result.entry.mask == first.entry.mask
        assert result.entry.key == first.entry.key
        assert result.entry.action == first.entry.action


def test_empty_table_batch():
    """Table-miss leaves: wildcard mask, DENY, zero rules examined."""
    generator = MegaflowGenerator(FlowTable())
    keys = [FlowKey(ip_src=1), FlowKey(ip_src=2), FlowKey(ip_src=1)]
    for result in generator.generate_batch(keys):
        assert result.rule is None
        assert result.rules_examined == 0
        assert result.entry.action is DENY
        assert result.entry.source_rule == "<table-miss>"
        assert all(v == 0 for v in result.entry.mask.values)


# -- incremental trie growth (the fleet_tick shape) -----------------------------

_V6 = (0x20010DB8 << 96) | 0xDEADBEEF  # constrains bits on both sides of bit 64


def growth_table() -> FlowTable:
    table = FlowTable()
    table.add_rule(Match(ip_src=(0x0A000000, 0xFFFFFF00)), ALLOW, priority=50, name="net")
    table.add_rule(Match(ipv6_src=_V6), DENY, priority=40, name="v6")
    table.add_rule(Match(tp_dst=80), ALLOW, priority=30, name="web")
    table.add_rule(Match.any(), DENY, priority=20, name="match-all")  # mid-table
    table.add_rule(Match(ip_dst=0x0A000001), ALLOW, priority=10, name="shadowed")
    return table


def growth_key(rng) -> FlowKey:
    """A key one bit-flip away (or not) from each rule's value."""
    def near(value: int, width: int) -> int:
        return value ^ (1 << rng.randrange(width)) if rng.random() < 0.7 else value

    return FlowKey(
        ip_src=near(0x0A000007, 32),
        ipv6_src=near(_V6, 128),
        tp_dst=near(80, 16),
        tp_src=rng.randrange(1 << 16),
    )


@pytest.mark.parametrize(
    "strategy",
    [WILDCARDING, OVS_DEFAULT, replace(OVS_DEFAULT, default_chunks=3)],
    ids=["wildcarding", "ovs-wide-field", "3-chunks-wide-field"],
)
def test_trie_grows_incrementally_across_small_bursts(strategy):
    """Hundreds of 1-5 key calls on one generator ≡ scalar, call by call.

    No call sees enough keys to amortise anything: every path is proven by
    whichever key walks it first and must serve all later calls.  The table
    holds a match-all rule mid-priority (a rule with no tests), a 128-bit
    field (per-bit chunks above bit 64; one >64-bit chunk under
    ``wide_field_threshold``), and mutates every few calls — each version
    bump must replace the trie, every call in between must extend the same
    one.
    """
    rng = random.Random(18)
    table = growth_table()
    generator = MegaflowGenerator(table, strategy)
    pool: list[FlowKey] = []
    added: FlowRule | None = None
    root, version = None, None
    for call in range(300):
        if call and call % 23 == 0:
            if added is None:
                added = table.add_rule(
                    Match(tp_src=(rng.randrange(1 << 16) & 0xFF00, 0xFF00)),
                    rng.choice([ALLOW, DENY]),
                    priority=rng.choice([60, 35, 15]),
                    name=f"added-{call}",
                )
            else:
                table.remove(added)
                added = None
        keys = []
        for _ in range(rng.randint(1, 5)):
            if pool and rng.random() < 0.3:
                keys.append(rng.choice(pool))
            else:
                pool.append(growth_key(rng))
                keys.append(pool[-1])
        assert_batch_equals_scalar(generator, keys, f"call {call}")
        if table.version == version:
            assert generator._trie_root is root, call
        else:
            assert generator._trie_root is not root, call
            root, version = generator._trie_root, table.version
    assert version > 10  # the table really did mutate throughout


# -- flow-limit behaviour under batched upcalls (serial/thread/process) ---------

def limit_table() -> FlowTable:
    table = FlowTable()
    table.add_rule(Match(tp_dst=(80, 0xFFFF)), ALLOW, priority=10, name="allow-80")
    table.add_rule(Match(ip_src=(0x0A000000, 0xFFFFFF00)), ALLOW, priority=5, name="allow-net")
    table.add_default_deny()
    return table


def limit_keys(n: int = 160) -> list[FlowKey]:
    # Enough distinct microflows to blow through a tiny flow limit, with
    # repeats so post-limit bursts mix hits, rejected misses, and dupes.
    keys = [
        FlowKey(ip_src=0x0A000000 | (i % 40), tp_src=1000 + i, tp_dst=80 if i % 3 else 443)
        for i in range(n)
    ]
    return keys + keys[: n // 4]


def build_limited(executor: str, limit: int) -> ShardedDatapath:
    config = DatapathConfig(microflow_capacity=0, executor=executor, max_megaflows=limit)
    return ShardedDatapath(limit_table(), config, n_shards=2)


@pytest.mark.parametrize("limit", [3, 10])
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_flow_limit_batched_equals_scalar(executor, limit):
    """max_megaflows rejections are identical: scalar ≡ batched, any executor.

    The reference is the scalar engine — a per-key ``process`` loop (one
    ``generate`` per upcall) on the serial datapath; ``process_batch``
    under every executor must reproduce its verdict transcript, per-shard
    stats (``installs``/``install_rejected``), and final entry set exactly.
    """
    keys = limit_keys()
    reference = build_limited("serial", limit=limit)
    shard_ids, mask_counts, probe_costs, expected = [], [], [], []
    for key in keys:
        shard_id = reference.shard_of(key)
        shard = reference.shards[shard_id]
        shard_ids.append(shard_id)
        mask_counts.append(shard.n_masks)
        probe_costs.append(shard.scan_cost)
        expected.append(reference.process(key, now=1.0))

    other = build_limited(executor, limit=limit)
    try:
        got = other.process_batch(keys, now=1.0)
        label = f"{executor}/limit={limit}"
        assert list(got.shard_ids) == shard_ids, label
        assert list(got.mask_counts) == mask_counts, label
        assert list(got.probe_costs) == probe_costs, label
        assert got.upcalls == sum(1 for verdict in expected if verdict.is_upcall), label
        for i, (a, b) in enumerate(zip(expected, got.verdicts)):
            assert a.action == b.action, (label, i)
            assert a.path == b.path, (label, i)
            assert a.masks_inspected == b.masks_inspected, (label, i)
            assert a.rules_examined == b.rules_examined, (label, i)
            assert (a.installed is None) == (b.installed is None), (label, i)
        assert {(e.mask.values, e.key) for e in other.entries()} == {
            (e.mask.values, e.key) for e in reference.entries()
        }, label
        for shard_id, (ref_shard, got_shard) in enumerate(zip(reference.shards, other.shards)):
            # A ``process`` loop runs no batches; one burst is one per shard.
            assert got_shard.stats.batches == 1 and ref_shard.stats.batches == 0
            assert replace(got_shard.stats, batches=0) == ref_shard.stats, (label, shard_id)
            assert got_shard.stats.install_rejected == ref_shard.stats.install_rejected
        assert other.n_megaflows == reference.n_megaflows <= limit * 2, label
    finally:
        other.close()
