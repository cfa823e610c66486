"""Property-based tests (hypothesis) for the core invariants.

These are the load-bearing correctness arguments of the reproduction:

* megaflow generation satisfies Cover (Inv(1)) and Independence (Inv(2))
  for arbitrary rule sets, strategies and traffic;
* the cached datapath is semantically transparent (≡ flow-table lookup);
* every alternative classifier agrees with linear search;
* the analytic expectation formulas agree with each other and stay within
  their combinatorial bounds;
* wire-format round-trips are lossless.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.adapter import TssCachedClassifier
from repro.classifier.flowtable import FlowTable
from repro.classifier.harp import HarpClassifier
from repro.classifier.hypercuts import HyperCutsClassifier
from repro.classifier.linear import LinearSearchClassifier
from repro.classifier.rule import FlowRule, Match
from repro.classifier.slowpath import MegaflowGenerator, StrategyConfig
from repro.classifier.trie import HierarchicalTrieClassifier
from repro.classifier.tss import TupleSpaceSearch
from repro.core.analysis import (
    attainable_masks,
    expected_masks,
)
from repro.packet.builder import PacketBuilder
from repro.packet.fields import FIELDS, FlowKey
from repro.packet.headers import PROTO_TCP
from tests.masks_oracle import expected_masks_enumerate
from tests.packet_oracle import flow_key, ipv4_checksum_ok, parse_packet
from tests.store_helpers import verify_disjoint

# -- strategies -----------------------------------------------------------------

FIELD_POOL = ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto")


@st.composite
def prefix_constraints(draw):
    """A (field, value, prefix-mask) constraint."""
    name = draw(st.sampled_from(FIELD_POOL))
    width = FIELDS[name].width
    plen = draw(st.integers(min_value=1, max_value=width))
    mask = ((1 << plen) - 1) << (width - plen)
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1)) & mask
    return name, value, mask


@st.composite
def rule_sets(draw, max_rules=8):
    """A random prefix-style rule set with a catch-all deny."""
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
def strategies_cfg(draw):
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return StrategyConfig()  # wildcarding
    if choice == 1:
        return StrategyConfig(default_chunks=1)  # exact
    if choice == 2:
        return StrategyConfig(default_chunks=draw(st.integers(min_value=2, max_value=6)))
    return StrategyConfig(wide_field_threshold=draw(st.integers(min_value=8, max_value=64)))


# -- megaflow generation invariants ------------------------------------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=25),
       strategy=strategies_cfg())
def test_cover_invariant(rules, keys, strategy):
    """Inv(1): every generated megaflow matches the packet that spawned it."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table, strategy)
    for key in keys:
        entry = generator.generate(key).entry
        assert key.masked(entry.mask) == entry.key


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=2, max_size=25),
       strategy=strategies_cfg())
def test_independence_invariant(rules, keys, strategy):
    """Inv(2): all generated megaflows are pairwise disjoint."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table, strategy)
    cache = TupleSpaceSearch()
    for key in keys:
        cache.insert(generator.generate(key).entry)
    verify_disjoint(cache)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=25),
       strategy=strategies_cfg())
def test_generated_action_matches_table(rules, keys, strategy):
    """The megaflow carries exactly the flow table's decision."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table, strategy)
    for key in keys:
        assert generator.generate(key).entry.action == table.classify(key)


@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=40))
def test_datapath_transparency(rules, keys):
    """Caching levels never change the classification outcome."""
    from repro.switch.datapath import Datapath, DatapathConfig

    table = FlowTable(rules=rules)
    datapath = Datapath(table, DatapathConfig(microflow_capacity=16))
    for repeat in range(2):  # replays exercise micro/megaflow hits
        for key in keys:
            assert datapath.process(key).action == table.classify(key)


# -- classifier equivalence ---------------------------------------------------------

@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=30))
def test_all_classifiers_agree_with_linear(rules, keys):
    reference = LinearSearchClassifier(rules)
    others = [
        HierarchicalTrieClassifier(rules),
        HyperCutsClassifier(rules),
        HarpClassifier(rules),
        TssCachedClassifier(rules),
    ]
    for key in keys:
        expected = reference.classify(key).action
        for classifier in others:
            assert classifier.classify(key).action == expected, classifier.name


# -- TSS structural properties --------------------------------------------------------

@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=30))
def test_masks_inspected_bounded(rules, keys):
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)
    cache = TupleSpaceSearch()
    for key in keys:
        cache.insert(generator.generate(key).entry)
    for key in keys:
        result = cache.lookup(key)
        assert result.hit  # its own entry covers it
        assert 1 <= result.masks_inspected <= cache.n_masks


@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=30))
def test_memo_never_changes_results(rules, keys):
    """Looking the same keys up twice gives identical outcomes."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)
    cache = TupleSpaceSearch()
    for key in keys:
        cache.insert(generator.generate(key).entry)
    first = [(cache.lookup(k).hit, cache.lookup(k).masks_inspected) for k in keys]
    second = [(cache.lookup(k).hit, cache.lookup(k).masks_inspected) for k in keys]
    assert first == second


# -- detector soundness ------------------------------------------------------------

@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=rule_sets(), keys=st.lists(flow_keys(), min_size=1, max_size=30))
def test_detector_never_flags_allow_entries(rules, keys):
    """Requirement (i) of §8: admitted traffic is never attributed."""
    from repro.core.detector import entry_matches_pattern

    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)
    entries = [generator.generate(key).entry for key in keys]
    for entry in entries:
        if entry.action.is_drop:
            continue
        for rule in rules:
            assert not entry_matches_pattern(entry, rule)


# -- analytic model properties ---------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(widths=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
       n=st.integers(min_value=0, max_value=100000))
def test_expected_mask_methods_agree(widths, n):
    census = expected_masks(widths, n)
    enumerate_ = expected_masks_enumerate(widths, n)
    assert abs(census - enumerate_) <= max(1e-6, 1e-9 * census)


@settings(max_examples=30, deadline=None)
@given(widths=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
       n=st.integers(min_value=0, max_value=100000))
def test_expected_masks_bounded_and_monotone(widths, n):
    value = expected_masks(widths, n)
    assert 0.0 <= value <= attainable_masks(widths) + 1e-9
    assert value <= expected_masks(widths, n + 1000) + 1e-9


# -- wire format round-trips -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(ip_src=st.integers(min_value=0, max_value=(1 << 32) - 1),
       ip_dst=st.integers(min_value=0, max_value=(1 << 32) - 1),
       tp_src=st.integers(min_value=0, max_value=(1 << 16) - 1),
       tp_dst=st.integers(min_value=0, max_value=(1 << 16) - 1),
       ttl=st.integers(min_value=1, max_value=255),
       payload=st.binary(max_size=64))
def test_tcp_packet_roundtrip(ip_src, ip_dst, tp_src, tp_dst, ttl, payload):
    key = FlowKey(ip_proto=PROTO_TCP, ip_src=ip_src, ip_dst=ip_dst,
                  tp_src=tp_src, tp_dst=tp_dst, ip_ttl=ttl)
    packet = PacketBuilder().from_flow_key(key)
    packet.payload = payload
    parsed = parse_packet(packet.to_bytes())
    assert flow_key(parsed) == flow_key(packet)
    assert parsed.payload == payload
    assert ipv4_checksum_ok(parsed.ip)


@settings(max_examples=60, deadline=None)
@given(value=st.integers(min_value=0, max_value=(1 << 32) - 1),
       plen=st.integers(min_value=0, max_value=32))
def test_prefix_mask_shape(value, plen):
    from repro.classifier.trie import prefix_length
    from repro.packet.fields import FIELDS

    mask = FIELDS["ip_src"].prefix_mask(plen)
    assert prefix_length(mask, 32) == plen
    assert (value & mask) & ~mask == 0
