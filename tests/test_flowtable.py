"""Unit tests for the ordered flow table."""

import weakref

import pytest

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule, Match
from repro.exceptions import ClassifierError, RuleError
from repro.packet.fields import FlowKey


class TestOrdering:
    def test_priority_wins(self):
        table = FlowTable()
        table.add_rule(Match(tp_dst=80), DENY, priority=1, name="low")
        table.add_rule(Match(tp_dst=80), ALLOW, priority=10, name="high")
        assert table.lookup(FlowKey(tp_dst=80)).name == "high"

    def test_insertion_order_breaks_ties(self):
        table = FlowTable()
        table.add_rule(Match(tp_dst=80), ALLOW, priority=5, name="first")
        table.add_rule(Match(tp_dst=80), DENY, priority=5, name="second")
        assert table.lookup(FlowKey(tp_dst=80)).name == "first"

    def test_paper_fig6_overlap_example(self):
        """§2.1: packet matching rules #2 and #4 resolves to #2."""
        table = FlowTable()
        table.add_rule(Match(tp_dst=80), ALLOW, priority=40, name="#1")
        table.add_rule(Match(ip_src=0x0A000001), ALLOW, priority=30, name="#2")
        table.add_rule(Match(tp_src=12345), ALLOW, priority=20, name="#3")
        table.add_rule(Match.any(), DENY, priority=0, name="#4")
        key = FlowKey(ip_src=0x0A000001, tp_src=34521, tp_dst=443)
        assert table.lookup(key).name == "#2"

    def test_classify_defaults_deny(self):
        table = FlowTable()
        table.add_rule(Match(tp_dst=80), ALLOW, priority=1)
        assert table.classify(FlowKey(tp_dst=81)) == DENY
        assert table.lookup(FlowKey(tp_dst=81)) is None


class TestMutation:
    def test_add_and_remove(self):
        table = FlowTable()
        rule = table.add_rule(Match(tp_dst=80), ALLOW)
        assert len(table) == 1
        table.remove(rule)
        assert len(table) == 0

    def test_remove_missing_raises(self):
        table = FlowTable()
        rule = FlowRule(Match(tp_dst=80), ALLOW)
        with pytest.raises(RuleError, match="not in table"):
            table.remove(rule)

    def test_add_requires_flowrule(self):
        with pytest.raises(RuleError):
            FlowTable().add("rule")  # type: ignore[arg-type]

    def test_clear(self):
        table = FlowTable()
        table.add_rule(Match(tp_dst=80), ALLOW)
        table.clear()
        assert len(table) == 0

    def test_extend(self):
        rules = [
            FlowRule(Match(tp_dst=80), ALLOW, priority=2),
            FlowRule(Match(tp_dst=81), DENY, priority=1),
        ]
        table = FlowTable()
        table.extend(rules)
        assert len(table) == 2

    def test_version_bumps_on_change(self):
        table = FlowTable()
        version = table.version
        table.add_rule(Match(tp_dst=80), ALLOW)
        assert table.version > version

    def test_subscription_fires(self):
        table = FlowTable()
        owner = _Owner()
        table.subscribe(owner.on_change)  # the bound method object dies here; its owner lives
        table.add_rule(Match(tp_dst=80), ALLOW)
        table.clear()
        assert owner.events == 2

    def test_subscription_ends_with_its_owner(self):
        table = FlowTable()
        owner, survivor = _Owner(), _Owner()
        table.subscribe(owner.on_change)
        table.subscribe(survivor.on_change)
        alive = weakref.ref(owner)
        del owner
        assert alive() is None  # freed by reference counting: the table holds no reference
        table.add_rule(Match(tp_dst=80), ALLOW)
        assert survivor.events == 1

    def test_a_function_is_refused(self):
        table = FlowTable()
        with pytest.raises(ClassifierError, match="bound method"):
            table.subscribe(lambda: None)


class _Owner:
    def __init__(self):
        self.events = 0

    def on_change(self):
        self.events += 1


class TestStructure:

    def test_format_table_renders(self):
        table = FlowTable(name="acl")
        table.add_rule(Match(tp_dst=80), ALLOW, name="allow-web")
        text = table.format_table()
        assert "acl" in text
        assert "allow-web" in text

    def test_default_deny_lowest_priority(self):
        table = FlowTable()
        table.add_default_deny()
        table.add_rule(Match(tp_dst=80), ALLOW, priority=10)
        assert table.classify(FlowKey(tp_dst=80)) == ALLOW
