"""Unit tests for the §7 alternative classifiers (tries, HyperCuts, HaRP)."""

import pytest

from repro.classifier import hypercuts
from repro.classifier.actions import ALLOW, DENY
from repro.classifier.adapter import TssCachedClassifier
from repro.classifier.harp import HarpClassifier
from repro.classifier.hypercuts import HyperCutsClassifier
from repro.classifier.linear import LinearSearchClassifier
from repro.classifier.rule import FlowRule, Match
from repro.classifier.trie import HierarchicalTrieClassifier, prefix_length
from repro.core.usecases import SIPSPDP
from repro.exceptions import ClassifierError
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP


def fig6_rules():
    return SIPSPDP.build_table().rules_by_priority()


WEB = FlowKey(ip_proto=PROTO_TCP, ip_src=7, tp_src=50000, tp_dst=80)
TRUSTED = FlowKey(ip_proto=PROTO_TCP, ip_src=0x0A000001, tp_src=50000, tp_dst=443)
RANDOM_DENY = FlowKey(ip_proto=PROTO_TCP, ip_src=9, tp_src=9, tp_dst=9)

ALL_CLASSIFIERS = [
    LinearSearchClassifier,
    HierarchicalTrieClassifier,
    HyperCutsClassifier,
    HarpClassifier,
    TssCachedClassifier,
]


class TestPrefixLength:
    def test_valid_prefixes(self):
        assert prefix_length(0x8000, 16) == 1
        assert prefix_length(0xC000, 16) == 2
        assert prefix_length(0xFFFF, 16) == 16
        assert prefix_length(0, 16) == 0

    def test_non_prefix_rejected(self):
        with pytest.raises(ClassifierError):
            prefix_length(0x0001, 16)
        with pytest.raises(ClassifierError):
            prefix_length(0xA000, 16)


@pytest.mark.parametrize("classifier_cls", ALL_CLASSIFIERS,
                         ids=lambda c: c.__name__)
class TestFig6Semantics:
    def test_allow_web(self, classifier_cls):
        clf = classifier_cls(fig6_rules())
        assert clf.classify(WEB).action == ALLOW

    def test_allow_trusted_host(self, classifier_cls):
        clf = classifier_cls(fig6_rules())
        assert clf.classify(TRUSTED).action == ALLOW

    def test_default_deny(self, classifier_cls):
        clf = classifier_cls(fig6_rules())
        assert clf.classify(RANDOM_DENY).action.is_drop

    def test_priority_resolution(self, classifier_cls):
        """The §2.1 overlap example: rule #2 wins over #4."""
        clf = classifier_cls(fig6_rules())
        key = FlowKey(ip_proto=PROTO_TCP, ip_src=0x0A000001, tp_src=34521, tp_dst=443)
        result = clf.classify(key)
        assert result.action == ALLOW

    def test_cost_positive(self, classifier_cls):
        clf = classifier_cls(fig6_rules())
        assert clf.classify(WEB).cost >= 1

    def test_memory_units_positive(self, classifier_cls):
        clf = classifier_cls(fig6_rules())
        clf.classify(WEB)  # the TSS cache is empty until traffic arrives
        assert clf.memory_units() >= 1


class TestTrieSpecifics:
    def test_prefix_rules(self):
        rules = [
            FlowRule(Match(ip_src=(0x0A000000, 0xFF000000)), ALLOW, priority=1, name="net10"),
            FlowRule(Match(ip_src=(0x0A0A0000, 0xFFFF0000)), DENY, priority=2, name="net1010"),
            FlowRule(Match.any(), DENY, priority=0, name="default"),
        ]
        trie = HierarchicalTrieClassifier(rules)
        # Longest-match by priority: 10.10.x.x denied, rest of 10/8 allowed.
        assert trie.classify(FlowKey(ip_src=0x0A0A0001)).action.is_drop
        assert trie.classify(FlowKey(ip_src=0x0A0B0001)).action == ALLOW
        assert trie.classify(FlowKey(ip_src=0x0B000001)).action.is_drop

    def test_backtracking_finds_shorter_prefix(self):
        rules = [
            FlowRule(Match(ip_src=(0x0A000000, 0xFF000000), tp_dst=80), ALLOW,
                     priority=2, name="specific"),
            FlowRule(Match(tp_dst=80), DENY, priority=1, name="broad"),
            FlowRule(Match.any(), DENY, priority=0),
        ]
        trie = HierarchicalTrieClassifier(rules)
        # 11.x.x.x:80 must fall back to the zero-length ip_src prefix.
        assert trie.classify(FlowKey(ip_src=0x0B000001, tp_dst=80)).rule_name == "broad"

    def test_rejects_non_prefix_masks(self):
        rules = [FlowRule(Match(tp_dst=(0x0001, 0x0001)), ALLOW)]
        with pytest.raises(ClassifierError):
            HierarchicalTrieClassifier(rules)

    def test_catchall_only(self):
        trie = HierarchicalTrieClassifier([FlowRule(Match.any(), ALLOW, name="any")])
        assert trie.classify(FlowKey()).action == ALLOW


class TestHyperCutsSpecifics:
    def test_bucket_limit_respected(self, monkeypatch):
        monkeypatch.setattr(hypercuts, "BINTH", 2)
        clf = HyperCutsClassifier(fig6_rules())
        assert clf.classify(WEB).action == ALLOW

    def test_cost_bounded_by_depth_plus_bucket(self, monkeypatch):
        monkeypatch.setattr(hypercuts, "BINTH", 4)
        monkeypatch.setattr(hypercuts, "MAX_CUTS", 8)
        clf = HyperCutsClassifier(fig6_rules())
        for key in (WEB, TRUSTED, RANDOM_DENY):
            assert clf.classify(key).cost < 40

    def test_many_disjoint_rules_tree_splits(self, monkeypatch):
        rules = [
            FlowRule(Match(tp_dst=port), ALLOW, priority=1, name=f"p{port}")
            for port in range(0, 64)
        ]
        rules.append(FlowRule(Match.any(), DENY, priority=0, name="deny"))
        monkeypatch.setattr(hypercuts, "BINTH", 4)
        clf = HyperCutsClassifier(rules)
        for port in (0, 13, 63):
            assert clf.classify(FlowKey(tp_dst=port)).rule_name == f"p{port}"
        assert clf.classify(FlowKey(tp_dst=100)).rule_name == "deny"


class TestHarpSpecifics:
    def test_primary_field_default(self):
        clf = HarpClassifier(fig6_rules())
        # ip_proto appears in 3 rules (most-constrained): acceptable choice,
        # but classification stays correct regardless.
        assert clf.classify(WEB).action == ALLOW

    def test_explicit_primary_field(self):
        clf = HarpClassifier(fig6_rules(), primary_field="ip_src")
        assert clf.classify(TRUSTED).action == ALLOW
        assert clf.classify(RANDOM_DENY).action.is_drop

    def test_tread_rounding(self):
        rules = [
            FlowRule(Match(ip_src=(0x0A000000, 0xFFC00000)), ALLOW, priority=1, name="10/10"),
            FlowRule(Match.any(), DENY, priority=0, name="deny"),
        ]
        clf = HarpClassifier(rules, primary_field="ip_src")
        # /10 rounds down to the /8 tread but the full match is verified.
        assert clf.classify(FlowKey(ip_src=0x0A100001)).rule_name == "10/10"
        assert clf.classify(FlowKey(ip_src=0x0AF00001)).rule_name == "deny"

    def test_cost_is_treads_plus_bucket_checks(self):
        clf = HarpClassifier(fig6_rules(), primary_field="ip_src")
        assert clf.classify(RANDOM_DENY).cost <= len(clf.treads) + 10


class TestTssAdapterSpecifics:
    def test_cost_grows_with_attack(self):
        from repro.core.tracegen import ColocatedTraceGenerator

        rules = fig6_rules()
        clf = TssCachedClassifier(rules)
        benign_before = clf.classify(WEB).cost
        table = SIPSPDP.build_table()
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        for key in trace.keys:
            clf.classify(key)
        # Steady state: the scan order decorrelates from insertion order.
        clf.churn(seed=3)
        benign_after = clf.classify(WEB.replace(tp_src=50001)).cost
        assert benign_after > 20 * max(benign_before, 1)
        assert clf.n_masks > 8000

    def test_churn_preserves_semantics(self):
        rules = fig6_rules()
        clf = TssCachedClassifier(rules)
        keys = [WEB, TRUSTED, RANDOM_DENY]
        before = [clf.classify(k).action for k in keys]
        clf.churn(seed=9)
        after = [clf.classify(k).action for k in keys]
        assert before == after
