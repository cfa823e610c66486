"""Probe-native cost plane tests: TSS identity, parity, and invariance.

The cost plane's contract (see ``repro/classifier/backend.py`` and
ROADMAP.md "Probe-native cost plane"):

* **TSS identity** — for the paper's backend, probes ≡ masks: per-packet
  ``probe_costs`` equal ``max(mask_counts, 1)`` on arbitrary traffic, the
  unit cost is 1.0, and ``expected_scan_cost() == max(n_masks, 1)``; the
  cost model's probe entry points price exactly like the mask formulas.
  This is what keeps the Table 1 / Fig 8-9 presets byte-identical.
* **Batch ≡ sequential probe accounting** — for *every* registered
  backend, the batched pipeline spends and reports the same probe stats
  as per-packet processing.
* **Hypervisor charge invariance** — attack units charged per core are
  identical whether packets are injected one by one or in batches, and a
  1-shard sharded host charges exactly what a plain-datapath host does.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.backend import megaflow_backend_names
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule, Match
from repro.core.detector import tse_mask_fraction, tse_scan_cost_dilution
from repro.core.migration import MigrationPolicy
from repro.core.mitigation import MFCGuard, MFCGuardConfig
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.netsim.cloud import ENVIRONMENTS, SYNTHETIC_ENV, Server
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.fields import FIELDS, FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.sharded import ShardedDatapath

BACKENDS = megaflow_backend_names()
FIELD_POOL = ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto")


# -- strategies (same family as tests/test_backend.py) ------------------------------

@st.composite
def prefix_constraints(draw):
    name = draw(st.sampled_from(FIELD_POOL))
    width = FIELDS[name].width
    plen = draw(st.integers(min_value=1, max_value=width))
    mask = ((1 << plen) - 1) << (width - plen)
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1)) & mask
    return name, value, mask


@st.composite
def rule_sets(draw, max_rules=6):
    n = draw(st.integers(min_value=1, max_value=max_rules))
    rules = []
    for index in range(n):
        constraints = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            name, value, mask = draw(prefix_constraints())
            constraints[name] = (value, mask)
        action = ALLOW if draw(st.booleans()) else DENY
        priority = draw(st.integers(min_value=0, max_value=5))
        rules.append(FlowRule(Match(**constraints), action, priority=priority, name=f"r{index}"))
    rules.append(FlowRule(Match.any(), DENY, priority=-1, name="default"))
    return rules


def _mixed_traffic(seed: int, count: int) -> list[FlowKey]:
    rng = np.random.default_rng(seed)
    base = [
        FlowKey(
            ip_src=int(rng.integers(0, 1 << 32)),
            ip_dst=int(rng.integers(0, 1 << 32)),
            tp_src=int(rng.integers(0, 1 << 16)),
            tp_dst=int(rng.integers(0, 1 << 16)),
            ip_proto=6,
        )
        for _ in range(max(4, count // 8))
    ]
    return [
        base[int(rng.integers(0, len(base)))]
        if rng.random() < 0.55
        else FlowKey(
            ip_src=int(rng.integers(0, 1 << 32)),
            ip_dst=int(rng.integers(0, 1 << 32)),
            tp_src=int(rng.integers(0, 1 << 16)),
            tp_dst=int(rng.integers(0, 1 << 16)),
            ip_proto=6,
        )
        for _ in range(count)
    ]


def _fresh_rules(rules):
    return [FlowRule(r.match, r.action, priority=r.priority, name=r.name) for r in rules]


def _detonated(backend: str) -> Datapath:
    datapath = Datapath(
        SIPDP.build_table(),
        DatapathConfig(microflow_capacity=0, megaflow_backend=backend),
    )
    trace = ColocatedTraceGenerator(
        datapath.flow_table, base={"ip_proto": PROTO_TCP}
    ).generate()
    datapath.process_batch(list(trace.keys))
    return datapath


# -- TSS identity: probes ≡ masks --------------------------------------------------

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    seed=st.integers(min_value=0, max_value=2**31),
    batch_size=st.integers(min_value=1, max_value=17),
)
def test_tss_probe_costs_equal_mask_counts(rules, seed, batch_size):
    """On arbitrary traffic, the TSS probe plane is the mask plane."""
    datapath = Datapath(
        FlowTable(rules=_fresh_rules(rules)),
        DatapathConfig(microflow_capacity=0, megaflow_backend="tss"),
    )
    keys = _mixed_traffic(seed, 50)
    for start in range(0, len(keys), batch_size):
        batch = datapath.process_batch(keys[start : start + batch_size], now=1.0)
        assert list(batch.probe_costs) == [float(max(m, 1)) for m in batch.mask_counts]
        assert datapath.megaflows.expected_scan_cost() == float(max(datapath.n_masks, 1))
    snapshot = datapath.snapshot()
    assert snapshot.unit_cost == 1.0
    assert snapshot.scan_cost == float(max(snapshot.n_masks, 1))


def test_cost_model_mask_entry_points_are_the_probe_special_case():
    model = SYNTHETIC_ENV.cost_model
    for masks in (1, 2, 17, 516, 8209):
        assert model.victim_gbps(masks) == model.victim_gbps(float(masks))
    counts = [0, 1, 5, 5, 17, 516, 516, 516]
    assert model.attack_units_batch([float(max(m, 1)) for m in counts], 2) == (
        model.attack_units_batch(counts, 2)
    )


# -- batch ≡ sequential probe accounting, every backend ----------------------------

@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    seed=st.integers(min_value=0, max_value=2**31),
    batch_size=st.integers(min_value=1, max_value=17),
)
def test_batch_probe_accounting_equals_sequential(rules, seed, batch_size):
    """stats_scans / stats_scan_probes agree between the two pipelines."""
    keys = _mixed_traffic(seed, 40)
    for name in BACKENDS:
        seq = Datapath(
            FlowTable(rules=_fresh_rules(rules)),
            DatapathConfig(microflow_capacity=0, megaflow_backend=name),
        )
        bat = Datapath(
            FlowTable(rules=_fresh_rules(rules)),
            DatapathConfig(microflow_capacity=0, megaflow_backend=name),
        )
        seq_probes = [seq.process(k, now=1.0).masks_inspected for k in keys]
        bat_probes = []
        for start in range(0, len(keys), batch_size):
            batch = bat.process_batch(keys[start : start + batch_size], now=1.0)
            bat_probes.extend(v.masks_inspected for v in batch.verdicts)
        assert seq_probes == bat_probes, name
        assert seq.megaflows.stats_scans == bat.megaflows.stats_scans, name
        assert seq.megaflows.stats_scan_probes == bat.megaflows.stats_scan_probes, name


@pytest.mark.parametrize("name", BACKENDS)
def test_scan_stats_feed_the_snapshot(name):
    datapath = _detonated(name)
    cache = datapath.megaflows
    snapshot = datapath.snapshot()
    assert snapshot.scans == cache.stats_scans > 0
    assert snapshot.probes_total == cache.stats_scan_probes > 0
    assert snapshot.scan_cost >= 1.0
    fresh = Datapath(datapath.flow_table, DatapathConfig(megaflow_backend=name))
    assert fresh.snapshot().scans == 0


# -- hypervisor charge invariance --------------------------------------------------

def _attack_keys() -> list[FlowKey]:
    table = SIPDP.build_table()
    return list(
        ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate().keys
    )


def _make_host(n_shards: int | None, backend: str = "tss") -> HypervisorHost:
    table = SIPDP.build_table()
    config = DatapathConfig(microflow_capacity=0, megaflow_backend=backend)
    if n_shards is None:
        datapath = Datapath(table, config)
    else:
        datapath = ShardedDatapath(table, config, n_shards=n_shards)
    return HypervisorHost(datapath, SYNTHETIC_ENV.cost_model)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_shards", [None, 1, 4])
def test_hypervisor_charges_batch_equals_sequential(n_shards, backend):
    """Units charged per core match between batched and per-packet injection."""
    keys = _attack_keys()
    batched = _make_host(n_shards, backend)
    sequential = _make_host(n_shards, backend)
    for start in range(0, len(keys), 32):
        batched.inject_attack_batch(keys[start : start + 32], now=1.0)
    for key in keys:
        sequential.inject_attack_batch([key], now=1.0)
    assert batched._attack_units == pytest.approx(sequential._attack_units)
    assert batched._upcalls == sequential._upcalls


def test_hypervisor_charges_shard_count_invariant_at_one_shard():
    """A 1-shard sharded host charges exactly what a plain host does."""
    keys = _attack_keys()
    plain = _make_host(None)
    one_shard = _make_host(1)
    plain.inject_attack_batch(keys, now=1.0)
    one_shard.inject_attack_batch(keys, now=1.0)
    assert plain._attack_units == one_shard._attack_units
    plain.tick(1.0, 0.1)
    one_shard.tick(1.0, 0.1)
    assert plain.cpu_load_fraction == one_shard.cpu_load_fraction
    assert plain.per_core_load == one_shard.per_core_load


# -- the probe plane sees the grouped defense --------------------------------------

def test_tuplechain_scan_cost_stays_bounded_after_detonation():
    tss = _detonated("tss")
    chain = _detonated("tuplechain")
    assert tss.n_masks == chain.n_masks > 500
    assert tss.scan_cost == float(tss.n_masks)
    assert chain.scan_cost < tss.scan_cost / 4
    # Victim pricing through the hypervisor's unit-cost mix follows suit.
    model = SYNTHETIC_ENV.cost_model
    assert model.victim_cost_units_probes(chain.scan_cost) < (
        model.victim_cost_units_probes(tss.scan_cost) / 4
    )


def test_detector_dilution_is_backend_meaningful():
    """Mask fraction is backend-blind; scan-cost dilution is not."""
    tss = _detonated("tss")
    chain = _detonated("tuplechain")
    table = tss.flow_table
    assert tse_mask_fraction(tss.megaflows, table) == pytest.approx(
        tse_mask_fraction(chain.megaflows, chain.flow_table)
    )
    tss_dilution = tse_scan_cost_dilution(tss.megaflows, table)
    chain_dilution = tse_scan_cost_dilution(chain.megaflows, chain.flow_table)
    assert tss_dilution > 10  # the staircase multiplied TSS scan cost
    assert 1.0 <= chain_dilution < tss_dilution / 4  # chains absorbed it
    # Clean cache: nothing to dilute.
    empty = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=0))
    assert tse_scan_cost_dilution(empty.megaflows, empty.flow_table) == pytest.approx(1.0)
    assert tse_mask_fraction(empty.megaflows, empty.flow_table) == 0.0


def test_mfcguard_probe_threshold_is_chain_aware():
    """The guard cleans TSS but stands down on a cheap-to-scan explosion."""
    for name, expect_clean in (("tss", True), ("tuplechain", False)):
        datapath = _detonated(name)
        guard = MFCGuard(
            datapath,
            MFCGuardConfig(mask_threshold=100, probe_cost_threshold=200.0),
        )
        decisions = guard.run(now=1.0)
        signals = decisions[0].signals
        assert signals["masks"] > 500
        if expect_clean:
            assert {decision.action for decision in decisions} == {"clean"}
            assert sum(decision.changed for decision in decisions) > 0
            assert signals["probe_cost"] == float(signals["masks"])
        else:
            assert [decision.action for decision in decisions] == ["stand_down"]
            assert decisions[0].changed == 0
            assert signals["probe_cost"] < 200.0


def test_mfcguard_without_probe_threshold_keeps_paper_behaviour():
    datapath = _detonated("tuplechain")
    guard = MFCGuard(datapath, MFCGuardConfig(mask_threshold=100))
    decisions = guard.run(now=1.0)
    assert {decision.action for decision in decisions} == {"clean"}
    assert sum(decision.changed for decision in decisions) > 0


# -- migration stays out of the paper presets --------------------------------------

def test_presets_carry_no_migration_policy():
    """``EnvironmentProfile.migration_policy`` defaults to ``None`` in
    every paper preset: the Table 1 / Fig 8-9 environments build no
    migrator and their datapath knobs are untouched by the new field."""
    for name, environment in ENVIRONMENTS.items():
        assert environment.migration_policy is None, name
    server = Server("preset-probe", SYNTHETIC_ENV)
    try:
        assert server.host.migrator is None
    finally:
        server.close()


def test_inert_migration_policy_is_float_identical():
    """A migrator whose threshold never trips is charge-invisible: the
    victim time series matches the no-migrator run float for float."""
    from repro.experiments.migrationsweep import run_policy_cell

    window = dict(use_case_name="SipSpDp", duration=10.0, attack_start=2.0, attack_stop=8.0)
    bare = run_policy_cell("none", migration_policy=MigrationPolicy(), **window)
    inert = run_policy_cell(
        "migration",
        migration_policy=MigrationPolicy(cost_threshold=1e12),
        **window,
    )
    assert inert["series"] == bare["series"]
    assert inert["swaps"] == 0
    assert inert["final_backend"] == "tss"
