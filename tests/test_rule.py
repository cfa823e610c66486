"""Unit tests for Match and FlowRule."""

import pytest

from repro.classifier.actions import ALLOW, DENY, Action, ActionKind
from repro.classifier.rule import FlowRule, Match
from repro.exceptions import RuleError
from repro.packet.fields import FlowKey


class TestMatch:
    def test_exact_constraint(self):
        match = Match(tp_dst=80)
        assert match.matches(FlowKey(tp_dst=80))
        assert not match.matches(FlowKey(tp_dst=81))

    def test_tuple_constraint_prefix(self):
        match = Match(ip_src=(0x0A000000, 0xFF000000))  # 10.0.0.0/8
        assert match.matches(FlowKey(ip_src=0x0A123456))
        assert not match.matches(FlowKey(ip_src=0x0B000000))

    def test_value_outside_mask_rejected(self):
        with pytest.raises(RuleError, match="outside mask"):
            Match(ip_src=(0x0A000001, 0xFF000000))

    def test_zero_mask_is_no_constraint(self):
        match = Match(ip_src=(0, 0))
        assert match.is_catchall
        assert match.matches(FlowKey(ip_src=12345))

    def test_catchall(self):
        assert Match.any().is_catchall
        assert Match.any().matches(FlowKey(ip_src=1, tp_dst=2))

    def test_fields_in_canonical_order(self):
        match = Match(tp_dst=80, ip_src=(0x0A000000, 0xFF000000))
        assert match.fields == ("ip_src", "tp_dst")

    def test_constraint_lookup(self):
        match = Match(tp_dst=80)
        assert match.constraint("tp_dst") == (80, 0xFFFF)
        assert match.constraint("tp_src") is None

    def test_mask_aggregation(self):
        match = Match(tp_dst=80, ip_src=(0x0A000000, 0xFF000000))
        mask = match.mask()
        assert mask["tp_dst"] == 0xFFFF
        assert mask["ip_src"] == 0xFF000000

    def test_overlaps(self):
        a = Match(ip_src=(0x0A000000, 0xFF000000))
        b = Match(ip_src=0x0A000001)
        c = Match(ip_src=0x0B000001)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)
        # Disjoint fields always overlap (some packet satisfies both).
        assert Match(tp_dst=80).overlaps(Match(tp_src=53))

    def test_equality_and_hash(self):
        assert Match(tp_dst=80) == Match(tp_dst=(80, 0xFFFF))
        assert hash(Match(tp_dst=80)) == hash(Match(tp_dst=(80, 0xFFFF)))
        assert Match(tp_dst=80) != Match(tp_dst=81)

    def test_unknown_field(self):
        from repro.exceptions import FieldError

        with pytest.raises(FieldError):
            Match(nonsense=1)


class TestFlowRule:
    def test_matches_delegates(self):
        rule = FlowRule(Match(tp_dst=80), ALLOW, priority=5)
        assert rule.matches(FlowKey(tp_dst=80))
        assert not rule.matches(FlowKey(tp_dst=81))

    def test_repr_contains_name(self):
        rule = FlowRule(Match(tp_dst=80), DENY, priority=1, name="drop-web")
        assert "drop-web" in repr(rule)


class TestAction:
    def test_drop_predicates(self):
        assert DENY.is_drop
        assert not ALLOW.is_drop

    def test_forward(self):
        action = Action(ActionKind.FORWARD, out_port=3)
        assert str(action) == "forward:3"
