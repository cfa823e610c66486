"""Differential tests: batched slow-path generation ≡ the per-chunk walk.

``MegaflowGenerator.generate`` and ``generate_batch`` run one compiled
field-level program, so they are held against the per-chunk walk of
``tests/slowpath_oracle.py`` instead of each other: for any flow table,
strategy, and burst of missed keys every result must carry the walk's
mask, masked key, action, matched rule and ``rules_examined`` — while the
program, leaf records and exact-key memo behind them must be discarded on
every table mutation (dicts-as-truth: the ordered flow table is the only
source of classification truth).  The ``slowpath_oracle`` fixture checks
every result the module's tests generate, the flow-limit differentials'
included.

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
    StrategyConfig,
)
from repro.packet.fields import FIELDS, FlowKey
from repro.switch.datapath import DatapathConfig
from repro.switch.sharded import ShardedDatapath
from tests.slowpath_oracle import assert_matches

pytestmark = pytest.mark.usefixtures("slowpath_oracle")

FIELD_POOL = ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto", "ipv6_src", "ipv6_dst")
STRATEGIES = {
    "wildcarding": WILDCARDING,
    "exact": EXACT_MATCH,
    "ovs": OVS_DEFAULT,
    "3-chunks": replace(WILDCARDING, default_chunks=3),
    "field-chunks": StrategyConfig(field_chunks={"ip_src": 5, "tp_dst": 2, "ipv6_src": 7}),
}


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
def holed_constraints(draw):
    """A (field, value, mask) constraint whose mask is any bit set."""
    name = draw(st.sampled_from(FIELD_POOL))
    width = FIELDS[name].width
    mask = draw(st.integers(min_value=1, max_value=(1 << width) - 1))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1)) & mask
    return name, value, mask


@st.composite
def rule_sets(draw, max_rules=6):
    n = draw(st.integers(min_value=1, max_value=max_rules))
    rules = []
    for index in range(n):
        constraints = {}
        # Zero constraints is a match-all rule, wherever it lands.
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            name, value, mask = draw(st.one_of(prefix_constraints(), holed_constraints()))
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
def near_keys(draw, rules):
    """A key carrying some rule's values, a few bits flipped (or none):
    random keys fail on a rule's first bit, these walk deep paths."""
    rule = draw(st.sampled_from(rules))
    values = {name: draw(st.integers(0, (1 << FIELDS[name].width) - 1)) for name in FIELD_POOL}
    for name, value, mask in rule.match.constraints():
        values[name] = (values[name] & ~mask) | value
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        name = draw(st.sampled_from(FIELD_POOL))
        values[name] ^= 1 << draw(st.integers(0, FIELDS[name].width - 1))
    return FlowKey(**values)


@st.composite
def key_bursts(draw, max_size=25, rules=None):
    """Key lists with deliberate duplicates (the coalescing case)."""
    keys = st.one_of(flow_keys(), near_keys(rules)) if rules else flow_keys()
    keys = draw(st.lists(keys, min_size=1, max_size=max_size))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        keys.append(keys[draw(st.integers(min_value=0, max_value=len(keys) - 1))])
    return keys


def assert_batch_equals_scalar(generator: MegaflowGenerator, keys, label=""):
    """generate_batch ≡ the per-chunk walk, field for field, in order."""
    batched = generator.generate_batch(keys)
    assert len(batched) == len(keys)
    for i, (key, result) in enumerate(zip(keys, batched)):
        assert_matches(generator, key, result, (label, i))


# -- generate_batch ≡ the per-chunk walk ----------------------------------------

@st.composite
def tables_and_bursts(draw):
    rules = draw(rule_sets())
    return rules, draw(key_bursts(rules=rules))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tables_and_bursts(), strategy=st.sampled_from(sorted(STRATEGIES)))
def test_generate_batch_equivalent(case, strategy):
    """Batched ≡ the walk for random tables/bursts under every strategy:
    holed masks, 128-bit fields, match-all rules, k-chunk splits."""
    rules, keys = case
    generator = MegaflowGenerator(FlowTable(rules=rules), STRATEGIES[strategy])
    assert_batch_equals_scalar(generator, keys, strategy)
    # A second pass answers from the memo — still identical.
    assert_batch_equals_scalar(generator, keys, f"{strategy}/memoised")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_last_rule_match_and_miss_in_its_last_chunk(strategy):
    """The last rule's match and a miss failing on its last chunk share
    mask and ``rules_examined``; only the action (and rule) differ."""
    table = FlowTable()
    table.add_rule(Match(tp_dst=80), DENY, priority=20, name="web")
    last = table.add_rule(
        Match(ip_src=(0x0A000000, 0xFFFFFF00), ipv6_src=(0xAB << 64, 0xFF << 64)),
        ALLOW, priority=10, name="last",
    )
    generator = MegaflowGenerator(table, STRATEGIES[strategy])
    chunks = generator._chunks("ipv6_src", 0xFF << 64)
    hit = FlowKey(tp_dst=443, ip_src=0x0A000007, ipv6_src=0xAB << 64)
    # Flip one bit of the last chunk only: every earlier chunk agrees.
    miss = hit.replace(ipv6_src=hit["ipv6_src"] ^ (chunks[-1] & -chunks[-1]))
    matched, missed = generator.generate_batch([hit, miss])
    assert matched.rule is last and matched.entry.action is ALLOW
    assert missed.rule is None and missed.entry.action is DENY
    assert matched.entry.mask == missed.entry.mask
    assert matched.rules_examined == missed.rules_examined == 2
    assert generator.generate(miss).entry.action is DENY


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=key_bursts(max_size=12), extra=prefix_constraints())
def test_trie_invalidated_on_table_mutation(rules, keys, extra):
    """Rule insert/remove/flush each discard the program (dicts-as-truth)."""
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


# -- many small calls on one program (the fleet_tick shape) ---------------------

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
    """Hundreds of 1-5 key calls on one generator ≡ the walk, call by call.

    No call sees enough keys to amortise anything: one compiled program
    and its leaf records must serve every call of a table version.  The
    table holds a match-all rule mid-priority (a rule with no steps), a
    128-bit field (per-bit chunks above bit 64; one >64-bit chunk under
    ``wide_field_threshold``), and mutates every few calls — each version
    bump must recompile the program, every call in between must reuse it.
    """
    rng = random.Random(18)
    table = growth_table()
    generator = MegaflowGenerator(table, strategy)
    pool: list[FlowKey] = []
    added: FlowRule | None = None
    program, version = None, None
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
            assert generator._program is program, call
        else:
            assert generator._program is not program, call
            program, version = generator._program, table.version
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
            assert got_shard.stats == ref_shard.stats, (label, shard_id)
            assert got_shard.stats.install_rejected == ref_shard.stats.install_rejected
        assert other.n_megaflows == reference.n_megaflows <= limit * 2, label
    finally:
        other.close()
