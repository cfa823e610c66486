"""Unit tests for co-located adversarial trace generation (§5.1)."""

import pytest

from repro.classifier.flowtable import FlowTable
from repro.core.tracegen import AdversarialTrace, ColocatedTraceGenerator, bit_inversion_list
from repro.core.usecases import DP, SIPDP, SIPSPDP, SPDP
from repro.exceptions import ExperimentError
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from tests.conftest import HYP_SHIFT
from tests.packet_oracle import flow_key


class TestBitInversion:
    def test_paper_fig1_trace(self):
        """§5.1: the 3-bit trace {001, 101, 011, 000}."""
        assert bit_inversion_list(0b001, 3) == [0b001, 0b101, 0b011, 0b000]

    def test_respects_mask(self):
        values = bit_inversion_list(0b0100, 4, mask=0b1100)
        assert values == [0b0100, 0b1100, 0b0000]

    def test_length_is_width_plus_one(self):
        assert len(bit_inversion_list(80, 16)) == 17


@pytest.mark.usefixtures("slowpath_oracle")
class TestSingleHeader:
    def test_fig1_keys(self, fig1_table):
        generator = ColocatedTraceGenerator(fig1_table)
        trace = generator.generate()
        hyp_values = [key["ip_tos"] >> HYP_SHIFT for key in trace.keys]
        assert hyp_values == [0b001, 0b101, 0b011, 0b000]
        assert trace.expected_masks == 3

    def test_trace_spawns_exactly_fig3(self, fig1_table):
        datapath = Datapath(fig1_table, DatapathConfig(microflow_capacity=0))
        for key in ColocatedTraceGenerator(fig1_table).generate().keys:
            datapath.process(key)
        assert datapath.n_masks == 3
        assert datapath.n_megaflows == 4


@pytest.mark.usefixtures("slowpath_oracle")
class TestMultiHeader:
    def test_fig4_sixteen_paths(self, fig4_table):
        trace = ColocatedTraceGenerator(fig4_table).generate()
        assert len(trace) == 16  # 1 + 3 + 12 decision paths
        assert trace.expected_masks == 13  # the paper's 3*4+1

    def test_use_case_ceilings(self):
        """The paper's mask ceilings: 16 / 257 / 513 / 8209."""
        expectations = {DP: 16, SPDP: 257, SIPDP: 513, SIPSPDP: 8209}
        for use_case, expected in expectations.items():
            table = use_case.build_table()
            trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
            datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
            for key in trace.keys:
                datapath.process(key)
            assert datapath.n_masks == expected, use_case.name
            assert trace.expected_masks == expected, use_case.name

    def test_pinned_base_prunes_scoped_fields(self):
        """Tenant scoping (exact ip_dst) must not multiply masks."""
        table = DP.build_table(ip_dst=0xC0000201)
        trace = ColocatedTraceGenerator(
            table, base={"ip_dst": 0xC0000201, "ip_proto": PROTO_TCP}
        ).generate()
        assert trace.expected_masks == 16

    def test_unpinned_scoped_field_expands(self):
        """Without pinning, ip_dst mismatch paths are legitimately explored
        (the egress-policy scenario of §7)."""
        table = DP.build_table(ip_dst=0xC0000201)
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        assert trace.expected_masks > 16


class TestTraceProperties:
    @pytest.mark.usefixtures("slowpath_oracle")
    def test_all_keys_unique(self):
        table = SIPDP.build_table()
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        assert len(set(trace.keys)) == len(trace.keys)

    def test_empty_table_rejected(self):
        with pytest.raises(ExperimentError):
            ColocatedTraceGenerator(FlowTable()).generate()

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_keys_exercise_each_action(self, fig4_table):
        trace = ColocatedTraceGenerator(fig4_table).generate()
        actions = {fig4_table.classify(key).is_drop for key in trace.keys}
        assert actions == {True, False}

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_trace_label(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate(use_case="Demo")
        assert trace.use_case == "Demo"

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_packets_materialize_with_noise(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        packets = trace.packets()
        assert len(packets) == len(trace)
        ttls = {p.ip.ttl for p in packets}
        assert len(ttls) > 1  # noise varied the TTL

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_packets_keep_classification_fields(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        for key, packet in zip(trace.keys, trace.packets()):
            assert flow_key(packet)["ip_tos"] == key["ip_tos"]

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_to_pcap(self, tmp_path, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        path = tmp_path / "attack.pcap"
        assert trace.to_pcap(path, rate_pps=100) == len(trace)
        assert path.stat().st_size > 24

    @pytest.mark.usefixtures("slowpath_oracle")
    def test_iteration(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        assert list(iter(trace)) == trace.keys


class TestAdversarialTraceContainer:
    def test_len(self):
        trace = AdversarialTrace(keys=[FlowKey(tp_dst=1)], expected_masks=1)
        assert len(trace) == 1
