"""Unit tests for megaflow generation — the heart of the reproduction.

These tests check the paper's worked examples bit for bit: the Fig. 2
exact-match cache, the Fig. 3 wildcarding cache, the Fig. 5 two-field
cache, and the strategy invariants Inv(1)/Inv(2).
"""

import itertools

import pytest

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.classifier.slowpath import (
    EXACT_MATCH,
    OVS_DEFAULT,
    WILDCARDING,
    MegaflowGenerator,
    StrategyConfig,
)
from repro.classifier.tss import TupleSpaceSearch
from repro.exceptions import StrategyError
from repro.packet.fields import FlowKey
from tests.conftest import HYP2_MASK, HYP_MASK, HYP_SHIFT, hyp, hyp2
from tests.store_helpers import verify_disjoint


def build_cache(table, strategy, keys, check=True) -> TupleSpaceSearch:
    generator = MegaflowGenerator(table, strategy)
    cache = TupleSpaceSearch(check_invariants=check)
    for key in keys:
        cache.insert(generator.generate(key).entry)
    return cache


@pytest.mark.usefixtures("slowpath_oracle")
class TestFig3Wildcarding:
    """Fig. 3: the wildcarding strategy on the Fig. 1 ACL."""

    def test_mask_and_entry_counts(self, fig1_table):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, WILDCARDING, keys)
        assert cache.n_masks == 3
        assert cache.n_entries == 4

    def test_exact_megaflows_of_fig3(self, fig1_table):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, WILDCARDING, keys)
        observed = {
            (e.key[10] >> HYP_SHIFT, e.mask["ip_tos"] >> HYP_SHIFT, e.action.is_drop)
            for e in cache.entries()
        }
        # The table of Fig. 3: (key, mask, deny?)
        assert observed == {
            (0b001, 0b111, False),  # #1 allow
            (0b100, 0b100, True),   # #2
            (0b010, 0b110, True),   # #3
            (0b000, 0b111, True),   # #4
        }

    def test_every_header_classified_correctly(self, fig1_table):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, WILDCARDING, keys)
        for v in range(8):
            entry = cache.lookup(FlowKey(ip_tos=hyp(v))).entry
            expected = ALLOW if v == 0b001 else DENY
            assert entry.action == expected


@pytest.mark.usefixtures("slowpath_oracle")
class TestFig2ExactMatch:
    """Fig. 2: the exact-match strategy — one mask, 2^w entries."""

    def test_single_mask_eight_entries(self, fig1_table):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, EXACT_MATCH, keys)
        assert cache.n_masks == 1
        assert cache.n_entries == 8

    def test_lookup_is_single_probe(self, fig1_table):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, EXACT_MATCH, keys)
        assert cache.lookup(FlowKey(ip_tos=hyp(7))).masks_inspected == 1


@pytest.mark.usefixtures("slowpath_oracle")
class TestFig5TwoFields:
    """Fig. 4/5: two-field ACL -> 13 masks (3*4+1), 16 entries."""

    def test_counts(self, fig4_table):
        keys = [
            FlowKey(ip_tos=hyp(a), ip_ttl=hyp2(b))
            for a, b in itertools.product(range(8), range(16))
        ]
        cache = build_cache(fig4_table, WILDCARDING, keys)
        assert cache.n_masks == 13
        assert cache.n_entries == 16

    def test_allow_rule_one_fully_wildcards_hyp2(self, fig4_table):
        generator = MegaflowGenerator(fig4_table, WILDCARDING)
        result = generator.generate(FlowKey(ip_tos=hyp(0b001), ip_ttl=hyp2(0b0101)))
        assert result.rule.name == "allow-hyp"
        assert result.entry.mask["ip_ttl"] == 0  # HYP2 untouched (entry #1 of Fig. 5)
        assert result.entry.mask["ip_tos"] == HYP_MASK

    def test_allow_rule_two_keeps_hyp_prefix(self, fig4_table):
        generator = MegaflowGenerator(fig4_table, WILDCARDING)
        # HYP = 1** (mismatch at bit 0), HYP2 = 1111 -> entry #2 of Fig. 5.
        result = generator.generate(FlowKey(ip_tos=hyp(0b100), ip_ttl=hyp2(0b1111)))
        assert result.rule.name == "allow-hyp2"
        assert result.entry.mask["ip_tos"] == 0b100 << HYP_SHIFT
        assert result.entry.mask["ip_ttl"] == HYP2_MASK

    def test_classification_agrees_with_table(self, fig4_table):
        generator = MegaflowGenerator(fig4_table, WILDCARDING)
        for a, b in itertools.product(range(8), range(16)):
            key = FlowKey(ip_tos=hyp(a), ip_ttl=hyp2(b))
            assert generator.generate(key).entry.action == fig4_table.classify(key)


@pytest.mark.usefixtures("slowpath_oracle")
class TestInvariants:
    def test_cover_invariant(self, fig4_table):
        """Inv(1): the generated entry always matches its packet."""
        generator = MegaflowGenerator(fig4_table, WILDCARDING)
        for a, b in itertools.product(range(8), range(16)):
            key = FlowKey(ip_tos=hyp(a), ip_ttl=hyp2(b))
            entry = generator.generate(key).entry
            assert key.masked(entry.mask) == entry.key

    def test_independence_all_strategies(self, fig4_table):
        """Inv(2): entries pairwise disjoint under any chunking."""
        keys = [
            FlowKey(ip_tos=hyp(a), ip_ttl=hyp2(b))
            for a, b in itertools.product(range(8), range(16))
        ]
        for strategy in (
            WILDCARDING,
            EXACT_MATCH,
            StrategyConfig(default_chunks=2),
            StrategyConfig(field_chunks={"ip_tos": 1, "ip_ttl": 2}),
        ):
            cache = build_cache(fig4_table, strategy, keys, check=False)
            verify_disjoint(cache)

    def test_table_miss_produces_deny(self):
        table = FlowTable()  # no rules at all
        table.add_rule(Match(tp_dst=80), ALLOW, priority=1)
        generator = MegaflowGenerator(table)
        result = generator.generate(FlowKey(tp_dst=81))
        assert result.rule is None
        assert result.entry.action == DENY
        assert result.entry.source_rule == "<table-miss>"

    def test_rules_examined_counted(self, fig4_table):
        generator = MegaflowGenerator(fig4_table)
        assert generator.generate(FlowKey(ip_tos=hyp(0b001))).rules_examined == 1
        assert generator.generate(FlowKey(ip_tos=hyp(0b000))).rules_examined == 3


class TestChunkedStrategies:
    """Theorem 4.1: k chunks -> k masks, sum(2^b_i - 1) + 1 entries."""

    @pytest.mark.usefixtures("slowpath_oracle")
    @pytest.mark.parametrize("k,expected_masks", [(1, 1), (2, 2), (3, 3)])
    def test_mask_counts_per_k(self, fig1_table, k, expected_masks):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        strategy = StrategyConfig(field_chunks={"ip_tos": k})
        cache = build_cache(fig1_table, strategy, keys)
        assert cache.n_masks == expected_masks

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_k2_entry_count(self, fig1_table):
        # 3 bits in chunks of (2, 1): entries = (2^2-1) + (2^1-1) + 1 = 5.
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, StrategyConfig(field_chunks={"ip_tos": 2}), keys)
        assert cache.n_entries == 5

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_chunk_count_above_width_clamps_to_per_bit(self, fig1_table):
        keys = [FlowKey(ip_tos=hyp(v)) for v in range(8)]
        cache = build_cache(fig1_table, StrategyConfig(field_chunks={"ip_tos": 64}), keys)
        assert cache.n_masks == 3  # same as wildcarding

    def test_wide_field_threshold(self):
        strategy = OVS_DEFAULT
        assert strategy.chunks_for("ipv6_src") == 1  # exact-matched
        assert strategy.chunks_for("tp_dst") is None  # per-bit

    def test_invalid_strategies(self):
        with pytest.raises(StrategyError):
            StrategyConfig(default_chunks=0)
        with pytest.raises(StrategyError):
            StrategyConfig(field_chunks={"tp_dst": 0})
        with pytest.raises(StrategyError):
            StrategyConfig(field_chunks={"bogus": 1})
        with pytest.raises(StrategyError):
            StrategyConfig(wide_field_threshold=0)


@pytest.mark.usefixtures("slowpath_oracle")
class TestIPv6Quirk:
    """§5.4: OVS exact-matches 128-bit addresses — few masks, many entries."""

    def test_exact_match_on_ipv6(self):
        table = FlowTable()
        table.add_rule(Match(ipv6_src=42), ALLOW, priority=10, name="allow-v6")
        table.add_default_deny()
        generator = MegaflowGenerator(table, OVS_DEFAULT)
        cache = TupleSpaceSearch()
        for src in range(100):
            cache.insert(generator.generate(FlowKey(ipv6_src=src)).entry)
        # One mask (the exact v6 address), one entry per distinct source.
        assert cache.n_masks == 1
        assert cache.n_entries == 100

    def test_wildcarding_on_ipv6_for_contrast(self):
        from tests.tracegen_oracle import bit_inversion_list

        table = FlowTable()
        table.add_rule(Match(ipv6_src=42), ALLOW, priority=10, name="allow-v6")
        table.add_default_deny()
        generator = MegaflowGenerator(table, WILDCARDING)
        cache = TupleSpaceSearch()
        for src in bit_inversion_list(42, 128):
            cache.insert(generator.generate(FlowKey(ipv6_src=src)).entry)
        # Prefix masks instead: one mask per bit position, one entry each.
        assert cache.n_masks == 128
        assert cache.n_entries == 129
