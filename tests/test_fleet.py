"""Fleet layer tests: streamed tenants, rack settlement, cloudsweep."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError, SimulationError
from repro.experiments import EXPERIMENTS
from repro.experiments.backendsweep import attacker_rules
from repro.netsim.cloud import MULTIQUEUE_ENV, SYNTHETIC_ENV
from repro.netsim.engine import Simulation
from repro.netsim.fleet import Fleet, Rack, TenantBlock, TenantStream
from repro.netsim.flows import ActiveWindow, AttackSource
from repro.packet.fields import FlowKey
from repro.switch.rss import RSS_FIELDS, five_tuple_hash, five_tuple_hash_columns

COLUMN_NAMES = ("ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst",
                "home_shard", "offered_gbps")


def tenant_key(block: TenantBlock, index: int) -> FlowKey:
    """Tenant ``index``'s 5-tuple as a :class:`FlowKey`: the scalar reference
    the block's derived columns are checked against."""
    return FlowKey(
        ip_src=int(block.ip_src[index]),
        ip_dst=int(block.ip_dst[index]),
        ip_proto=int(block.ip_proto[index]),
        tp_src=int(block.tp_src[index]),
        tp_dst=int(block.tp_dst[index]),
    )


def blocks_equal(a: TenantBlock, b: TenantBlock) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in COLUMN_NAMES
    )


class TestTenantStream:
    def test_same_seed_same_columns(self):
        a = TenantStream(7, 1, 2, 64, n_shards=4).build()
        b = TenantStream(7, 1, 2, 64, n_shards=4).build()
        assert blocks_equal(a, b)

    def test_different_address_different_columns(self):
        base = TenantStream(7, 1, 2, 64).build()
        for seed, rack, host in ((8, 1, 2), (7, 0, 2), (7, 1, 3)):
            other = TenantStream(seed, rack, host, 64).build()
            assert not blocks_equal(base, other)

    def test_stream_is_addressed_not_ordered(self):
        """Host (r, h)'s population is independent of construction order."""
        alone = TenantStream(3, 1, 4, 32, n_shards=4).build()
        fleet = Fleet(
            MULTIQUEUE_ENV, n_racks=2, hosts_per_rack=5,
            tenants_per_host=32, seed=3,
        )
        try:
            assert blocks_equal(alone, fleet.host(1, 4).tenants)
        finally:
            fleet.close()

    def test_home_shards_follow_rss_hash(self):
        block = TenantStream(5, 0, 0, 128, n_shards=4).build()
        for index in (0, 17, 127):
            key = tenant_key(block, index)
            assert block.home_shard[index] == five_tuple_hash(key) % 4

    def test_validation(self):
        with pytest.raises(SimulationError, match="n_tenants"):
            TenantStream(0, 0, 0, 0)


class TestHashColumns:
    def test_matches_scalar_hash(self):
        block = TenantStream(9, 0, 0, 256).build()
        columns = {name: getattr(block, name) for name in RSS_FIELDS}
        hashes = five_tuple_hash_columns(columns)
        for index in range(len(block)):
            assert int(hashes[index]) == five_tuple_hash(tenant_key(block, index))

    def test_full_field_width(self):
        """32-bit fields hash identically to the scalar byte walk."""
        keys = [
            FlowKey(ip_src=0xFFFFFFFF, ip_dst=0x01020304, ip_proto=17,
                    tp_src=65535, tp_dst=1),
            FlowKey(ip_src=0, ip_dst=0, ip_proto=0, tp_src=0, tp_dst=0),
        ]
        columns = {
            name: np.asarray([key[name] for key in keys], dtype=np.int64)
            for name in RSS_FIELDS
        }
        hashes = five_tuple_hash_columns(columns)
        assert [int(h) for h in hashes] == [five_tuple_hash(k) for k in keys]


class TestFleetDeterminism:
    def test_two_constructions_identical(self):
        fleets = [
            Fleet(SYNTHETIC_ENV, n_racks=2, hosts_per_rack=3,
                  tenants_per_host=40, seed=13)
            for _ in range(2)
        ]
        try:
            hosts_a, hosts_b = (list(f.hosts()) for f in fleets)
            assert [h.name for h in hosts_a] == [h.name for h in hosts_b]
            assert [h.attacker_ip for h in hosts_a] == [h.attacker_ip for h in hosts_b]
            for a, b in zip(hosts_a, hosts_b):
                assert blocks_equal(a.tenants, b.tenants)
        finally:
            for fleet in fleets:
                fleet.close()


class TestRackSettlement:
    def _attacked_fleet(self, **kwargs):
        fleet = Fleet(SYNTHETIC_ENV, n_racks=1, hosts_per_rack=3,
                      tenants_per_host=50, seed=2, **kwargs)
        host = fleet.host(0, 1)
        trace = host.detonation_trace(attacker_rules("SipDp"), label="SipDp")
        host.inject_attack_batch(list(trace.keys), now=0.0)
        return fleet

    def test_rack_pass_equals_per_host_pass(self):
        """One concatenated rack settlement ≡ each host settling alone."""
        racked = self._attacked_fleet()
        standalone = self._attacked_fleet()
        try:
            racked.racks[0].tick(0.0, 1.0)
            for host in standalone.hosts():
                host.tick(0.0, 1.0)
            for a, b in zip(racked.hosts(), standalone.hosts()):
                assert np.array_equal(a.tenants.assigned_gbps, b.tenants.assigned_gbps)
                assert np.array_equal(a.tenants.rate_gbps, b.tenants.rate_gbps)
        finally:
            racked.close()
            standalone.close()

    def test_vector_equals_scalar_over_a_run(self, settlement_oracle):
        """Every rack pass of a multi-rack run ≡ the scalar oracle's."""
        fleet = Fleet(SYNTHETIC_ENV, n_racks=2, hosts_per_rack=2,
                      tenants_per_host=30, seed=5)
        try:
            sim = Simulation(dt=0.1)
            fleet.register(sim)
            host = fleet.host(0, 0)
            trace = host.detonation_trace(attacker_rules("SipDp"))
            sim.add(AttackSource(host=host, keys=trace.keys, pps=300.0,
                                 windows=[ActiveWindow(1.0, 5.0)], period=0.1))
            sim.run(1.0)
            fleet.start_recording()
            sim.run(6.0)
            floors = fleet.floors()
        finally:
            fleet.close()
        assert settlement_oracle.calls == 2 * 7  # two racks, 1 s cadence
        assert settlement_oracle.widest_pass == 2  # both hosts of a rack in one pass
        assert settlement_oracle.victims == 7 * 4 * 30
        assert floors.min() < 0.2 * floors.max()  # the attacked host's tenants sank

    def test_attack_degrades_only_attacked_host(self):
        fleet = self._attacked_fleet()
        try:
            fleet.racks[0].tick(0.0, 1.0)
            idle = fleet.host(0, 0).tenants.assigned_gbps
            hit = fleet.host(0, 1).tenants.assigned_gbps
            assert hit.mean() < 0.2 * idle.mean()
            assert fleet.host(0, 2).tenants.assigned_gbps.mean() > 0.5 * idle.mean()
        finally:
            fleet.close()

    def test_empty_rack_rejected(self):
        with pytest.raises(SimulationError, match="no hosts"):
            Rack("r", [])


class TestCloudsweepExperiment:
    def test_smoke_run(self):
        result = EXPERIMENTS["cloudsweep"](
            n_racks=1,
            hosts_per_rack=3,
            tenants_per_host=20,
            duration=8.0,
            attack_start=2.0,
            attack_stop=6.0,
        )
        assert result.experiment_id == "cloudsweep"
        assert result.column("plan") == ["spread", "concentrated"]
        spread, concentrated = result.rows
        columns = list(result.columns)
        assert spread[columns.index("attacked_hosts")] == 3
        assert concentrated[columns.index("attacked_hosts")] == 1
        # The concentrated detonation must bite its host's tenants.
        attacked_p50 = concentrated[columns.index("attacked_floor_p50_gbps")]
        baseline_p50 = concentrated[columns.index("baseline_p50_gbps")]
        assert attacked_p50 < baseline_p50
        assert result.format_table()

    def test_bad_plan_rejected(self):
        from repro.experiments.cloudsweep import run_plan

        with pytest.raises(ExperimentError, match="unknown plan"):
            run_plan("everywhere", n_racks=1, hosts_per_rack=1, tenants_per_host=5,
                     duration=1.0, attack_start=0.0, attack_stop=1.0)
