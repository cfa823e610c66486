"""Unit tests for TSE pattern detection (Alg. 2's lookPatternInMFC)."""

import pytest

from repro.core.detector import entry_matches_pattern, find_tse_entries, tse_mask_fraction
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import DP, SIPDP
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig


@pytest.fixture
def attacked_datapath():
    table = SIPDP.build_table()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    for key in trace.keys:
        datapath.process(key)
    return table, datapath


class TestDetection:
    def test_attack_detected_per_rule(self, attacked_datapath):
        table, datapath = attacked_datapath
        patterns = find_tse_entries(datapath.megaflows, table)
        flagged = {pattern.rule.name for pattern in patterns}
        assert "allow-tp_dst" in flagged
        assert "allow-ip_src" in flagged

    def test_flagged_entries_are_denies(self, attacked_datapath):
        table, datapath = attacked_datapath
        for pattern in find_tse_entries(datapath.megaflows, table):
            assert all(entry.action.is_drop for entry in pattern.entries)

    def test_most_masks_attributed(self, attacked_datapath):
        table, datapath = attacked_datapath
        fraction = tse_mask_fraction(datapath.megaflows, table)
        assert fraction > 0.9

    def test_mask_count_property(self, attacked_datapath):
        table, datapath = attacked_datapath
        patterns = find_tse_entries(datapath.megaflows, table)
        for pattern in patterns:
            assert 0 < pattern.mask_count <= len(pattern.entries)


class TestBenignTraffic:
    def test_benign_cache_not_flagged(self):
        """Requirement (i) of §8: useful traffic is never attributed."""
        table = DP.build_table()
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        # Only admitted traffic: web flows from many clients.
        for client in range(50):
            datapath.process(
                FlowKey(ip_proto=PROTO_TCP, ip_src=client, tp_src=1000 + client, tp_dst=80)
            )
        patterns = find_tse_entries(datapath.megaflows, table)
        allow_entries = [
            e for p in patterns for e in p.entries if not e.action.is_drop
        ]
        assert allow_entries == []
        assert tse_mask_fraction(datapath.megaflows, table) == 0.0

    def test_empty_cache(self):
        table = DP.build_table()
        datapath = Datapath(table)
        assert find_tse_entries(datapath.megaflows, table) == []
        assert tse_mask_fraction(datapath.megaflows, table) == 0.0


class TestEntryPredicate:
    def test_allow_entry_never_matches(self, attacked_datapath):
        table, datapath = attacked_datapath
        rules = table.rules_by_priority()
        allow_entries = [e for e in datapath.megaflows.entries() if not e.action.is_drop]
        assert allow_entries  # the trace spawns allow entries too
        for entry in allow_entries:
            for rule in rules:
                assert not entry_matches_pattern(entry, rule)

    def test_first_diff_signature_required(self, attacked_datapath):
        """A deny entry *agreeing* with the rule on the prefix isn't TSE."""
        table, datapath = attacked_datapath
        rule = table.rules_by_priority()[0]  # allow-tp_dst (80)
        matching = [
            e for e in datapath.megaflows.entries()
            if e.action.is_drop and entry_matches_pattern(e, rule)
        ]
        # Every flagged entry disproves tp_dst=80 at its prefix end.
        index = list(
            __import__("repro.packet.fields", fromlist=["FIELD_ORDER"]).FIELD_ORDER
        ).index("tp_dst")
        for entry in matching:
            overlap = entry.mask.values[index] & 0xFFFF
            assert overlap != 0
