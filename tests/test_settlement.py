"""Differential tests: vectorised settlement ≡ the scalar reference.

The invariant every Table 1 / Fig 8-9 preset rides on: the numpy
settlement kernel (`settle_rates`, `update_protection`) must produce
*float-identical* results to the original per-victim Python loops kept
in :mod:`tests.settlement_oracle` — same arithmetic, same accumulation
order, bit for bit, across environments, shard counts and victim
placements.  The kernels are property-tested directly; whole runs are
checked by the ``settlement_oracle`` fixture, which compares every
``settlement.settle`` call a simulation makes against the scalar loops.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.experiments.backendsweep import attacker_rules
from repro.netsim import settlement
from repro.netsim.cloud import KUBERNETES_ENV, MULTIQUEUE_ENV, OPENSTACK_ENV, SYNTHETIC_ENV
from repro.netsim.fleet import FleetHost, TenantStream
from repro.netsim.hypervisor import HypervisorHost, QuirkConfig
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import CoreReport, Datapath, DatapathConfig
from repro.switch.sharded import ShardedDatapath
from tests.settlement_oracle import (
    ride_along,
    same_floats,
    settle_rates_scalar,
    update_protection_scalar,
)

ENVS = {
    "synthetic": SYNTHETIC_ENV,
    "openstack": OPENSTACK_ENV,
    "kubernetes": KUBERNETES_ENV,
}

QUIRK_VARIANTS = (
    QuirkConfig(),
    QuirkConfig(established_flow_protection=True, establish_seconds=2.0),
    QuirkConfig(
        established_flow_protection=True,
        establish_seconds=1.0,
        establish_mask_ceiling=8,
        collision_rate=0.02,
    ),
)


@st.composite
def settlement_cases(draw):
    """A random (cores, victims, placement, protection) settlement input."""
    n_cores = draw(st.integers(min_value=1, max_value=4))
    n_victims = draw(st.integers(min_value=1, max_value=16))
    scan_cost = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=9000.0, allow_nan=False),
            min_size=n_cores,
            max_size=n_cores,
        )
    )
    available = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2e7, allow_nan=False),
            min_size=n_cores,
            max_size=n_cores,
        )
    )
    # Each victim sits on a non-empty, sorted subset of cores (home_shards).
    placements = [
        tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n_cores - 1),
                        min_size=1,
                        max_size=n_cores,
                    )
                )
            )
        )
        for _ in range(n_victims)
    ]
    protected = draw(
        st.lists(st.booleans(), min_size=n_victims, max_size=n_victims)
    )
    return n_cores, n_victims, scan_cost, available, placements, protected


@pytest.mark.parametrize("env_name", sorted(ENVS))
@pytest.mark.parametrize("quirk_index", range(len(QUIRK_VARIANTS)))
@given(case=settlement_cases())
@settings(max_examples=40, deadline=None)
def test_settle_rates_matches_scalar(env_name, quirk_index, case):
    """settle_rates ≡ settle_rates_scalar, float for float."""
    n_cores, n_victims, scan_cost, available, placements, protected = case
    cost_model = ENVS[env_name].cost_model
    quirks = QUIRK_VARIANTS[quirk_index]
    pair_victim = [v for v, homes in enumerate(placements) for _ in homes]
    pair_core = [s for homes in placements for s in homes]
    link_cap = cost_model.link_gbps / n_victims

    reports = [
        CoreReport(n_masks=int(c), n_megaflows=0, scan_cost=c) for c in scan_cost
    ]
    core = settlement.core_costs(reports, available, cost_model, quirks)
    vector = settlement.settle_rates(
        core,
        np.asarray(pair_victim, dtype=np.intp),
        np.asarray(pair_core, dtype=np.intp),
        np.asarray(protected, dtype=bool),
        n_victims,
        link_cap,
        cost_model.unit_bits,
    )
    scalar = settle_rates_scalar(
        scan_cost,
        available,
        pair_victim,
        pair_core,
        protected,
        n_victims,
        link_cap,
        cost_model,
        quirks,
    )
    assert vector.tolist() == scalar


@given(
    n=st.integers(min_value=1, max_value=32),
    now=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_update_protection_matches_scalar(n, now, data):
    """The columnwise protection state machine ≡ the per-victim one."""
    quirks = QUIRK_VARIANTS[data.draw(st.integers(0, len(QUIRK_VARIANTS) - 1))]
    masks = np.asarray(
        data.draw(st.lists(st.integers(1, 200), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    calm_raw = data.draw(
        st.lists(
            st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
            ),
            min_size=n,
            max_size=n,
        )
    )
    protected_raw = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))

    calm_vec = np.asarray(
        [np.nan if c is None else c for c in calm_raw], dtype=np.float64
    )
    prot_vec = np.asarray(protected_raw, dtype=bool)
    settlement.update_protection(now, masks, calm_vec, prot_vec, quirks)

    calm_sca = [float("nan") if c is None else c for c in calm_raw]
    prot_sca = list(protected_raw)
    update_protection_scalar(
        now, masks.tolist(), calm_sca, prot_sca, quirks
    )

    assert prot_vec.tolist() == prot_sca
    assert same_floats(calm_vec.tolist(), calm_sca)


def test_oracle_that_intercepts_nothing_fails():
    """A ride-along that wrapped no settlement call must not pass silently."""
    with pytest.raises(AssertionError, match="intercepted no"):
        with ride_along():
            pass
    assert not hasattr(settlement.settle, "calls")  # production entry point restored


VICTIM_KEY = FlowKey(ip_proto=PROTO_TCP, ip_src=5, tp_src=52000, tp_dst=80)


def _attack_trace(datapath):
    return ColocatedTraceGenerator(
        datapath.flow_table, base={"ip_proto": PROTO_TCP}
    ).generate()


class TestHostModeIdentity:
    """Whole-host differential: every settlement of a run ≡ the scalar loops."""

    @pytest.mark.parametrize("env_name", ["synthetic", "openstack"])
    def test_modes_identical_over_attack(self, env_name, settlement_oracle):
        """Calm, attack, recovery — protection quirk on under ``openstack``."""
        environment = ENVS[env_name]
        datapath = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=0))
        host = HypervisorHost(
            datapath, environment.cost_model, quirks=environment.quirks
        )
        for index in range(3):
            name = f"v{index}"
            host.register_victim(name, (VICTIM_KEY.replace(tp_src=52000 + index),))
            host.victim_started(name, 0.0)
        trace = _attack_trace(datapath)
        rates = []
        for tick in range(150):
            now = tick * 0.1
            if 60 <= tick < 110:
                host.inject_attack_batch(trace.keys, now)
            host.tick(now, 0.1)
            rates.append(host.victim_rate("v0"))
        assert settlement_oracle.calls == 150
        assert settlement_oracle.victims == 3 * 150
        # The run crossed an attack — and, under the quirk, the victims had
        # earned their memo before it (5 s of calm) and kept most of their rate.
        floor = min(rates[60:110])
        if environment.quirks.established_flow_protection:
            assert all(state.protected for state in host.victims.values())
            assert 0.5 * rates[0] < floor < rates[0]
        else:
            assert floor < 0.1 * rates[0]

    def test_victim_spanning_two_cores(self, settlement_oracle):
        """Forward and reverse keys hashed apart: one victim, two pairs."""
        datapath = ShardedDatapath(
            SIPDP.build_table(), DatapathConfig(microflow_capacity=0), n_shards=2
        )
        try:
            forward = VICTIM_KEY
            reverse = next(
                key
                for key in (VICTIM_KEY.replace(tp_src=port) for port in range(52001, 52100))
                if datapath.shard_of(key) != datapath.shard_of(forward)
            )
            host = HypervisorHost(
                datapath, MULTIQUEUE_ENV.cost_model, quirks=MULTIQUEUE_ENV.quirks
            )
            spanning = host.register_victim("both", (forward, reverse))
            assert spanning.home_shards == (0, 1)
            host.register_victim("one", (forward,))
            host.victim_started("both", 0.0)
            host.victim_started("one", 0.0)
            trace = _attack_trace(datapath)
            for tick in range(30):
                now = tick * 0.1
                if 10 <= tick < 20:
                    host.inject_attack_batch(trace.keys, now)
                host.tick(now, 0.1)
        finally:
            datapath.close()
        assert settlement_oracle.calls == 30
        assert settlement_oracle.spanning_pairs == 30

    def test_standalone_fleet_host_tick(self, settlement_oracle):
        """``FleetHost.tick`` alone is the rack pass over one population."""
        host = FleetHost(
            "solo",
            OPENSTACK_ENV,
            TenantStream(3, 0, 0, 40).build(),
            attacker_ip=0x0A3F0001,
        )
        try:
            trace = host.detonation_trace(attacker_rules("SipDp"), label="SipDp")
            for tick in range(12):
                if tick == 7:
                    host.inject_attack_batch(list(trace.keys), now=float(tick))
                host.tick(float(tick), 1.0)
            assert host.tenants.protected.any()
        finally:
            host.close()
        assert settlement_oracle.calls == 12
        assert settlement_oracle.victims == 12 * 40
        assert settlement_oracle.widest_pass == 1
