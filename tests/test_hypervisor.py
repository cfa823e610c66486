"""Unit tests for the hypervisor host model (CPU accounting, quirks)."""

import pytest

from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import SimulationError
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.hypervisor import HypervisorHost, QuirkConfig
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig

VICTIM_KEY = FlowKey(ip_proto=PROTO_TCP, ip_src=5, tp_src=52000, tp_dst=80)


def make_host(quirks: QuirkConfig | None = None) -> HypervisorHost:
    table = SIPDP.build_table()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    return HypervisorHost(datapath, SYNTHETIC_ENV.cost_model, quirks=quirks)


def run_attack(host: HypervisorHost, now: float) -> int:
    table = host.datapath.flow_table
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    for key in trace.keys:
        host.inject_attack_batch([key], now)
    return len(trace)


class TestVictimAccounting:
    def test_baseline_full_rate(self):
        host = make_host()
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        host.keepalive("v", 0.0)
        host.tick(0.0, 0.1)
        # 10 Gbps CPU, 10 Gbps link, one mask -> full line rate.
        assert host.victim_rate("v") == pytest.approx(10.0, rel=0.05)

    def test_attack_degrades_victim(self):
        host = make_host()
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        host.tick(0.0, 0.1)
        baseline = host.victim_rate("v")
        run_attack(host, now=1.0)
        host.tick(1.0, 0.1)
        degraded = host.victim_rate("v")
        assert degraded < 0.1 * baseline  # SipDp: ~4.7% of baseline

    def test_victims_share_equally(self):
        host = make_host()
        for name in ("a", "b"):
            host.register_victim(name, (VICTIM_KEY.replace(tp_src=hash(name) & 0xFFFF),))
            host.victim_started(name, 0.0)
        host.tick(0.0, 0.1)
        assert host.victim_rate("a") == pytest.approx(host.victim_rate("b"))
        assert host.victim_rate("a") == pytest.approx(5.0, rel=0.1)  # half the link

    def test_stopped_victim_gets_nothing(self):
        host = make_host()
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        host.tick(0.0, 0.1)
        host.victim_stopped("v")
        host.tick(0.1, 0.1)
        assert host.victim_rate("v") == 0.0

    def test_unknown_victim(self):
        host = make_host()
        with pytest.raises(SimulationError):
            host.victim_rate("ghost")
        with pytest.raises(SimulationError):
            host.keepalive("ghost", 0.0)

    def test_duplicate_registration(self):
        host = make_host()
        host.register_victim("v", (VICTIM_KEY,))
        with pytest.raises(SimulationError):
            host.register_victim("v", (VICTIM_KEY,))


class TestAttackAccounting:
    def test_upcalls_counted(self):
        host = make_host()
        n = run_attack(host, now=0.0)
        host.tick(0.0, 1.0)
        assert host.upcall_pps == pytest.approx(n, rel=0.05)  # first pass: all miss

    def test_cpu_load_reported(self):
        host = make_host()
        host.tick(0.0, 0.1)
        assert host.cpu_load_fraction == pytest.approx(0.0, abs=0.01)
        run_attack(host, now=1.0)
        host.tick(1.0, 0.1)
        assert host.cpu_load_fraction > 0.05


class TestProtectionQuirk:
    def test_flow_earns_protection_when_calm(self):
        host = make_host(QuirkConfig(established_flow_protection=True,
                                     establish_seconds=5.0))
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        for tick in range(70):
            host.tick(tick * 0.1, 0.1)
        assert host.victims["v"].protected

    def test_no_protection_when_disabled(self):
        host = make_host()  # quirk off
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        for tick in range(70):
            host.tick(tick * 0.1, 0.1)
        assert not host.victims["v"].protected

    def test_no_protection_under_attack(self):
        host = make_host(QuirkConfig(established_flow_protection=True,
                                     establish_seconds=5.0))
        host.register_victim("v", (VICTIM_KEY,))
        run_attack(host, now=0.0)  # masks high from the start
        host.victim_started("v", 0.1)
        for tick in range(1, 70):
            host.tick(tick * 0.1, 0.1)
        assert not host.victims["v"].protected

    def test_protected_flow_keeps_rate_under_attack(self):
        quirks = QuirkConfig(established_flow_protection=True, establish_seconds=2.0)
        host = make_host(quirks)
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        for tick in range(30):
            host.tick(tick * 0.1, 0.1)
        assert host.victims["v"].protected
        run_attack(host, now=3.1)
        host.tick(3.1, 0.1)
        # Mask-memo keeps the established flow near full rate (~10% dip).
        assert host.victim_rate("v") > 7.0


class TestSettlementModes:
    def test_modes_agree_exactly(self, settlement_oracle):
        """Every settlement of a detonated host ≡ the scalar oracle's."""
        host = make_host()
        host.register_victim("v", (VICTIM_KEY,))
        host.victim_started("v", 0.0)
        run_attack(host, now=0.0)
        for tick in range(20):
            host.tick(tick * 0.1, 0.1)
        assert settlement_oracle.calls == 20


class TestRevalidatorIntegration:
    def test_idle_attack_entries_evicted(self):
        host = make_host()
        run_attack(host, now=0.0)
        masks_during = host.datapath.n_masks
        for second in range(1, 13):
            host.tick(float(second), 1.0)
        assert host.datapath.n_masks < masks_during / 10
