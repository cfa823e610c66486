"""Unit tests for traffic sources and victim flows."""

import itertools

import pytest

from repro.classifier.actions import ALLOW
from repro.classifier.rule import Match
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import DP, SIPDP
from repro.exceptions import SimulationError
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.flows import ActiveWindow, AttackSource, VictimFlow
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath
from tests.test_batch import assert_datapaths_equal, assert_verdicts_equal


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


class BurstLog:
    """A host that logs every ``inject_attack_batch`` call as ``(keys, now)``."""

    def __init__(self):
        self.calls: list[tuple[list[FlowKey], float]] = []

    def inject_attack_batch(self, keys, now):
        self.calls.append((list(keys), now))


class TestAnAttackTickIsOneBurst:
    """Each tick's due packets reach the host in one call, in trace order."""

    def test_each_active_tick_is_one_call_of_its_due_packets(self):
        trace = [FlowKey(ip_proto=PROTO_TCP, tp_src=i) for i in range(450)]
        host = BurstLog()
        source = AttackSource(host, trace, pps=2000, windows=[ActiveWindow(0.3, 1.0)])
        ticks = [round(tick * 0.1, 10) for tick in range(12)]
        for now in ticks:
            source.tick(now, 0.1)
        active = [now for now in ticks if 0.3 <= now < 1.0]
        assert [now for _, now in host.calls] == active
        assert [len(keys) for keys, _ in host.calls] == [200] * len(active)
        sent = [key for keys, _ in host.calls for key in keys]
        assert sent == list(itertools.islice(itertools.cycle(trace), 200 * len(active)))
        assert source.packets_sent == len(sent)

    def test_a_short_trace_wraps_inside_one_burst(self):
        host = BurstLog()
        source = AttackSource(host, KEYS[:3], pps=100)
        source.tick(0.0, 0.1)
        assert host.calls == [(KEYS[:3] * 3 + KEYS[:1], 0.0)]
        assert source.packets_sent == 10

    def test_a_tick_with_no_packet_due_makes_no_call(self):
        host = BurstLog()
        source = AttackSource(host, KEYS, pps=5)  # 0.5 packets per 0.1 s tick
        for tick in range(10):
            source.tick(tick * 0.1, 0.1)
        assert [(keys, round(now, 10)) for keys, now in host.calls] == [
            ([KEYS[i]], round((2 * i + 1) * 0.1, 10)) for i in range(5)
        ]
        assert source.current_pps == 10.0  # the last tick sent its packet


def fig8c_shaped_host() -> HypervisorHost:
    """A plain datapath with the default 256-entry microflow cache, whose
    ACL starts as the destination-port rule alone (Fig. 8c's pre-injection
    table); :func:`inject_source_ip_rule` completes it to SipDp."""
    return HypervisorHost(Datapath(DP.build_table()), SYNTHETIC_ENV.cost_model)


def inject_source_ip_rule(host: HypervisorHost) -> None:
    host.datapath.flow_table.add_rule(
        Match(ip_proto=PROTO_TCP, ip_src=SIPDP.allow_value("ip_src")), ALLOW, priority=5
    )


def test_one_burst_per_tick_equals_one_packet_calls():
    """An ``AttackSource`` tick ≡ one-packet ``inject_attack_batch`` calls.

    A SipDp trace (crafted against the table the run ends with, as Fig.
    8c's attacker does) with a few hot keys mixed in, so the microflow
    cache both hits and is overrun, replayed at 1,000 then 2,000 pps, with
    the source-IP rule injected mid-run.  Everything the datapath and
    the host keep must match exactly, except the per-tick attack units:
    a burst sums a core's scan costs in one ``attack_units_batch`` call
    before adding them, one-packet calls add each packet's cost in turn,
    so the two totals differ by float association (rounding) only.
    """
    crafted = ColocatedTraceGenerator(SIPDP.build_table()).generate().keys
    hot = crafted[:4]
    trace = []
    for i, key in enumerate(crafted):
        trace.append(key)
        if i % 5 == 0:
            trace.append(hot[i % 4])
    burst, sequential = fig8c_shaped_host(), fig8c_shaped_host()
    seen: list = []
    inject = burst.inject_attack_batch

    def recording(keys, now):
        verdicts = inject(keys, now)
        seen.append((list(keys), verdicts))
        return verdicts

    burst.inject_attack_batch = recording
    source = AttackSource(burst, trace, pps=1000)
    replay = itertools.cycle(trace)
    for tick in range(36):
        now = tick * 0.1
        if tick == 12:
            inject_source_ip_rule(burst)
            inject_source_ip_rule(sequential)
        if tick == 24:
            source.set_rate(2000)
        seen.clear()
        source.tick(now, 0.1)
        ((keys, verdicts),) = seen
        assert keys == list(itertools.islice(replay, 100 if tick < 24 else 200)), tick
        expected = [sequential.inject_attack_batch([key], now)[0] for key in keys]
        assert_verdicts_equal(expected, verdicts)
        assert burst._upcalls == sequential._upcalls, tick
        assert burst._attack_units == pytest.approx(sequential._attack_units, rel=1e-9, abs=0.0), tick
        burst.tick(now, 0.1)
        sequential.tick(now, 0.1)
    assert burst.datapath.stats == sequential.datapath.stats
    assert_datapaths_equal(burst.datapath, sequential.datapath)
    assert burst.datapath.n_masks > 400  # the injected rule detonated
    assert 0 < burst.datapath.stats.microflow_hits < burst.datapath.stats.packets


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
