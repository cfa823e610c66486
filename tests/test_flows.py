"""Unit tests for traffic sources and victim flows."""

import pytest

from repro.core.usecases import DP
from repro.exceptions import SimulationError
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.flows import ActiveWindow, AttackSource, VictimFlow
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath


def make_host() -> HypervisorHost:
    table = DP.build_table()
    return HypervisorHost(Datapath(table), SYNTHETIC_ENV.cost_model)


KEYS = [FlowKey(ip_proto=PROTO_TCP, tp_dst=i) for i in range(10)]


class TestActiveWindow:
    def test_contains(self):
        window = ActiveWindow(1.0, 2.0)
        assert window.contains(1.0)
        assert window.contains(1.999)
        assert not window.contains(2.0)
        assert not window.contains(0.5)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            ActiveWindow(2.0, 2.0)


class TestAttackSource:
    def test_rate_accounting(self):
        host = make_host()
        source = AttackSource(host, KEYS, pps=100)
        for tick in range(10):
            source.tick(tick * 0.1, 0.1)
        assert source.packets_sent == 100
        assert source.current_pps == pytest.approx(100, rel=0.2)

    def test_windows_respected(self):
        host = make_host()
        source = AttackSource(host, KEYS, pps=100, windows=[ActiveWindow(1.0, 2.0)])
        source.tick(0.5, 0.1)
        assert source.packets_sent == 0
        source.tick(1.5, 0.1)
        assert source.packets_sent == 10
        source.tick(2.5, 0.1)
        assert source.packets_sent == 10

    def test_fractional_rates_accumulate(self):
        host = make_host()
        source = AttackSource(host, KEYS, pps=5)  # 0.5 packets per 0.1 s tick
        for tick in range(20):
            source.tick(tick * 0.1, 0.1)
        assert source.packets_sent == 10

    def test_trace_loops(self):
        host = make_host()
        source = AttackSource(host, KEYS[:3], pps=100)
        source.tick(0.0, 0.1)  # 10 packets from a 3-key trace
        assert source.packets_sent == 10

    def test_set_rate(self):
        host = make_host()
        source = AttackSource(host, KEYS, pps=10)
        source.set_rate(1000)
        source.tick(0.0, 0.1)
        assert source.packets_sent == 100
        with pytest.raises(SimulationError):
            source.set_rate(-1)

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            AttackSource(make_host(), [], pps=10)

    def test_packets_reach_datapath(self):
        host = make_host()
        source = AttackSource(host, KEYS, pps=100)
        source.tick(0.0, 0.1)
        assert host.datapath.stats.packets == 10


class TestVictimFlow:
    def test_registration(self):
        host = make_host()
        VictimFlow(host, "v", KEYS[:1], offered_gbps=1.0)
        assert "v" in host.victims

    def test_duplicate_name_rejected(self):
        host = make_host()
        VictimFlow(host, "v", KEYS[:1], offered_gbps=1.0)
        with pytest.raises(SimulationError):
            VictimFlow(host, "v", KEYS[:1], offered_gbps=1.0)

    def test_tcp_ramps_up(self):
        host = make_host()
        flow = VictimFlow(host, "v", KEYS[:1], offered_gbps=5.0, kind="tcp")
        rates = []
        for tick in range(100):
            now = tick * 0.1
            flow.tick(now, 0.1)
            host.tick(now, 0.1)
            flow.settle(now, 0.1)
            rates.append(flow.rate_gbps)
        assert rates[5] < rates[50] <= rates[-1]
        assert rates[-1] == pytest.approx(5.0, rel=0.05)

    def test_udp_jumps_to_capacity(self):
        host = make_host()
        flow = VictimFlow(host, "v", KEYS[:1], offered_gbps=5.0, kind="udp")
        flow.tick(0.0, 0.1)
        host.tick(0.0, 0.1)
        flow.settle(0.0, 0.1)
        assert flow.rate_gbps == pytest.approx(5.0, rel=0.05)

    def test_windows_start_stop(self):
        host = make_host()
        flow = VictimFlow(host, "v", KEYS[:1], offered_gbps=1.0, kind="udp",
                          windows=[ActiveWindow(1.0, 2.0)])
        flow.tick(0.0, 0.1)
        assert not host.victims["v"].active
        flow.tick(1.0, 0.1)
        assert host.victims["v"].active
        flow.tick(2.5, 0.1)
        assert not host.victims["v"].active
        assert flow.rate_gbps == 0.0

    def test_invalid_args(self):
        host = make_host()
        with pytest.raises(SimulationError):
            VictimFlow(host, "x", KEYS[:1], offered_gbps=0)
        with pytest.raises(SimulationError):
            VictimFlow(host, "y", KEYS[:1], offered_gbps=1, kind="sctp")
