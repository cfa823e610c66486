"""Unit tests for the §5.2 use-case ACL builders."""

import pytest

from repro.classifier.actions import ALLOW
from repro.core.usecases import BASELINE, DP, SIPDP, SIPSPDP, SPDP, USE_CASES, use_case
from repro.exceptions import ExperimentError
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP


class TestRegistry:
    def test_all_present(self):
        assert set(USE_CASES) == {"Baseline", "Dp", "SpDp", "SipDp", "SipSpDp"}

    def test_lookup_case_insensitive(self):
        assert use_case("sipdp") is SIPDP
        assert use_case("SIPSPDP") is SIPSPDP

    def test_unknown_raises(self):
        with pytest.raises(ExperimentError, match="unknown use case"):
            use_case("nope")

    def test_expected_masks_match_paper(self):
        assert DP.expected_max_masks == 16
        assert SPDP.expected_max_masks == 256
        assert SIPDP.expected_max_masks == 512
        assert SIPSPDP.expected_max_masks == 8192

    def test_field_widths(self):
        assert SIPSPDP.field_widths() == (16, 32, 16)
        assert DP.field_widths() == (16,)


class TestTables:
    def test_sipspdp_is_fig6(self):
        """Rule shape of Fig. 6: three allow rules + DefaultDeny."""
        table = SIPSPDP.build_table()
        rules = table.rules_by_priority()
        assert [rule.name for rule in rules] == [
            "allow-tp_dst", "allow-ip_src", "allow-tp_src", "default-deny",
        ]
        # Fig. 6 semantics checks.
        assert table.classify(FlowKey(ip_proto=PROTO_TCP, tp_dst=80)) == ALLOW
        assert table.classify(FlowKey(ip_proto=PROTO_TCP, ip_src=0x0A000001)) == ALLOW
        assert table.classify(FlowKey(ip_proto=PROTO_TCP, tp_src=12345)) == ALLOW
        assert table.classify(FlowKey(ip_proto=PROTO_TCP, tp_src=1, tp_dst=1)).is_drop

    def test_priority_order_matches_fig6(self):
        """A packet matching #2 and #4 resolves to #2 (§2.1 example)."""
        table = SIPSPDP.build_table()
        key = FlowKey(ip_proto=PROTO_TCP, ip_src=0x0A000001, tp_src=34521, tp_dst=443)
        assert table.lookup(key).name == "allow-ip_src"

    def test_tenant_scoping(self):
        table = SIPDP.build_table(ip_dst=0xC0000201)
        # Traffic to another destination never matches the allow rules.
        assert table.classify(
            FlowKey(ip_proto=PROTO_TCP, ip_dst=0xC0000299, tp_dst=80)
        ).is_drop
        assert table.classify(
            FlowKey(ip_proto=PROTO_TCP, ip_dst=0xC0000201, tp_dst=80)
        ) == ALLOW

    def test_l4_rules_constrain_protocol(self):
        table = DP.build_table()
        rule = table.rules_by_priority()[0]
        assert rule.match.constraint("ip_proto") == (PROTO_TCP, 0xFF)

    def test_baseline_single_allow(self):
        table = BASELINE.build_table()
        assert len(table) == 2  # one allow + default deny

    def test_allow_value_lookup(self):
        assert DP.allow_value("tp_dst") == 80
        assert SIPDP.allow_value("ip_src") == 0x0A000001
        with pytest.raises(ExperimentError):
            DP.allow_value("ip_dst")
