"""Megaflow-backend layer tests: protocol, registry, and TSS ≡ TupleChain.

The backend seam's contract (see ``repro/classifier/backend.py``):

* every backend in the name table is a :class:`MegaflowStore` — the
  exact surface the datapath, revalidator, dpctl and MFCGuard drive;
* backends are **verdict-for-verdict and action-identical** on any
  traffic: same actions, same pipeline paths, same installed entry and
  mask sets, same upcall/install statistics, same eviction outcomes —
  only ``masks_inspected`` differs, being reported in backend-native
  probe units (mask tables scanned vs chain hash probes);
* batch ≡ sequential holds *per backend*;
* the grouped backend's probe units stay bounded by the group/chain
  structure while TSS's grow with the mask count — the defense property.
"""

from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.backend import (
    MegaflowStore,
    make_megaflow_backend,
    megaflow_backend_names,
)
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule, Match
from repro.classifier.slowpath import MegaflowGenerator
from repro.classifier.tss import TupleSpaceSearch
from repro.classifier.tuplechain import TupleChainSearch
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import CacheInvariantError, ClassifierError
from repro.packet.fields import FIELDS, FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from tests.store_helpers import lookup_batch, remove_where, verify_disjoint

# Derived from the name table: a new backend's row automatically inherits
# the store/differential coverage (differentials compare each backend
# against "tss", the reference implementation).
BACKENDS = megaflow_backend_names()
FIELD_POOL = ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto")


# -- strategies (same family as tests/test_batch.py) ------------------------------

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
    keys = []
    for _ in range(count):
        if rng.random() < 0.55:
            keys.append(base[int(rng.integers(0, len(base)))])
        else:
            keys.append(
                FlowKey(
                    ip_src=int(rng.integers(0, 1 << 32)),
                    ip_dst=int(rng.integers(0, 1 << 32)),
                    tp_src=int(rng.integers(0, 1 << 16)),
                    tp_dst=int(rng.integers(0, 1 << 16)),
                    ip_proto=6,
                )
            )
    return keys


# -- protocol and registry ---------------------------------------------------------

class TestRegistry:
    def test_builtin_backends_registered(self):
        names = megaflow_backend_names()
        assert "tss" in names and "tuplechain" in names

    @pytest.mark.parametrize("name", BACKENDS)
    def test_factories_satisfy_protocol(self, name):
        backend = make_megaflow_backend(name, check_invariants=True)
        assert isinstance(backend, MegaflowStore)
        assert backend.check_invariants

    def test_unknown_backend_rejected(self):
        with pytest.raises(ClassifierError):
            make_megaflow_backend("quantum")
        with pytest.raises(ClassifierError):
            Datapath(FlowTable(), DatapathConfig(megaflow_backend="quantum"))

    def test_config_selects_backend(self):
        table = FlowTable()
        assert isinstance(
            Datapath(table, DatapathConfig(megaflow_backend="tss")).megaflows,
            TupleSpaceSearch,
        )
        assert isinstance(
            Datapath(table, DatapathConfig(megaflow_backend="tuplechain")).megaflows,
            TupleChainSearch,
        )

    def test_injected_instance_wins(self):
        cache = TupleChainSearch()
        datapath = Datapath(FlowTable(), megaflows=cache)
        assert datapath.megaflows is cache

    def test_non_empty_injected_backend_rejected(self):
        from repro.exceptions import SwitchError

        generator = MegaflowGenerator(SIPDP.build_table())
        cache = TupleChainSearch()
        cache.insert(generator.generate(FlowKey(tp_dst=80, ip_proto=6)).entry)
        with pytest.raises(SwitchError):
            Datapath(FlowTable(), megaflows=cache)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rejected_insert_leaves_no_ghost_mask(self, name):
        """An Inv(2) failure must not register the offending entry's mask."""
        from repro.classifier.backend import MegaflowEntry
        from repro.packet.fields import FlowMask

        def entry(mask: FlowMask, tp_dst: int) -> MegaflowEntry:
            return MegaflowEntry(
                mask=mask, key=FlowKey(tp_dst=tp_dst).masked(mask), action=ALLOW
            )

        cache = make_megaflow_backend(name, check_invariants=True)
        mask_a = FlowMask(tp_dst=0xFFFF)
        cache.insert(entry(mask_a, 80))
        cache.lookup(FlowKey(tp_dst=80))  # warm any incremental index
        mask_b = FlowMask(tp_dst=0xFF00)  # wildcards the low byte: covers 80 too
        with pytest.raises(CacheInvariantError):
            cache.insert(entry(mask_b, 0))
        assert cache.n_masks == 1  # no ghost mask registered
        assert mask_b not in cache.masks()
        # A later disjoint insert under the same mask must work, not crash.
        fine = cache.insert(entry(mask_b, 0x1200))
        assert cache.find_entry(fine)
        assert cache.lookup(FlowKey(tp_dst=0x1234)).entry is fine


# -- differential: backends agree on everything observable -------------------------

def _datapaths(rules, **config):
    made = {}
    for name in BACKENDS:
        made[name] = Datapath(
            FlowTable(rules=[FlowRule(r.match, r.action, priority=r.priority, name=r.name) for r in rules]),
            DatapathConfig(megaflow_backend=name, **config),
        )
    return made


STATS_FIELDS = (
    "packets",
    "microflow_hits",
    "mask_cache_hits",
    "megaflow_hits",
    "upcalls",
    "installs",
    "install_rejected",
    "dead_entry_suppressed",
)


def assert_backends_agree(a: Datapath, b: Datapath):
    """Everything observable except probe units must match."""
    for field in STATS_FIELDS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field
    assert a.megaflows.stats_hits == b.megaflows.stats_hits
    assert a.megaflows.stats_misses == b.megaflows.stats_misses
    assert set(a.megaflows.masks()) == set(b.megaflows.masks())
    assert sorted((e.mask.values, e.key) for e in a.megaflows.entries()) == sorted(
        (e.mask.values, e.key) for e in b.megaflows.entries()
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    seed=st.integers(min_value=0, max_value=2**31),
    microflow=st.sampled_from([0, 8]),
    mask_cache=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=17),
)
def test_backends_verdict_identical(rules, seed, microflow, mask_cache, batch_size):
    """TSS and TupleChain agree on verdicts, paths, entries, and stats."""
    dps = _datapaths(
        rules,
        microflow_capacity=microflow,
        enable_mask_cache=mask_cache,
        mask_cache_size=8,
    )
    keys = _mixed_traffic(seed, 60)
    transcripts = {}
    for name, datapath in dps.items():
        verdicts = []
        for start in range(0, len(keys), batch_size):
            verdicts.extend(
                datapath.process_batch(keys[start : start + batch_size], now=1.0).verdicts
            )
        transcripts[name] = verdicts
    reference = transcripts["tss"]
    for name in BACKENDS:
        if name == "tss":
            continue
        for i, (x, y) in enumerate(zip(reference, transcripts[name])):
            assert x.action == y.action, (name, i)
            assert x.path == y.path, (name, i)
            assert x.rules_examined == y.rules_examined, (name, i)
            assert (x.installed is None) == (y.installed is None), (name, i)
        assert_backends_agree(dps["tss"], dps[name])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    keys=st.lists(
        st.builds(
            FlowKey,
            ip_src=st.integers(min_value=0, max_value=(1 << 32) - 1),
            tp_src=st.integers(min_value=0, max_value=(1 << 16) - 1),
            tp_dst=st.integers(min_value=0, max_value=(1 << 16) - 1),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_tuplechain_batch_equals_sequential(rules, keys):
    """Batch ≡ sequential for the grouped backend, probe units included."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)

    def build():
        cache = TupleChainSearch()
        for key in keys:
            cache.insert(generator.generate(key).entry)
        return cache

    replay = list(keys) + list(keys)
    a, b = build(), build()
    sequential = [a.lookup(k, now=1.0) for k in replay]
    batched = list(lookup_batch(b, replay, now=1.0))
    assert len(sequential) == len(batched)
    for i, (x, y) in enumerate(zip(sequential, batched)):
        assert x.masks_inspected == y.masks_inspected, i
        assert (x.entry is None) == (y.entry is None), i
        if x.entry is not None:
            assert x.entry.mask == y.entry.mask and x.entry.key == y.entry.key, i
    assert a.stats_hits == b.stats_hits
    assert a.stats_misses == b.stats_misses


def test_eviction_outcomes_identical():
    """Idle eviction removes the same entries whatever the backend."""
    dps = _datapaths(
        [
            FlowRule(Match(tp_dst=(80, 0xFFFF)), ALLOW, priority=1, name="allow-80"),
            FlowRule(Match.any(), DENY, priority=-1, name="default"),
        ],
        microflow_capacity=0,
    )
    from tests.tracegen_oracle import bit_inversion_list

    # Distinct megaflows: one per inverted bit of the allowed value.
    values = bit_inversion_list(80, 16)[1:]
    evicted = {}
    for name, datapath in dps.items():
        for i, value in enumerate(values):
            datapath.process(FlowKey(ip_src=i, tp_dst=value, ip_proto=6), now=float(i))
        evicted[name] = {
            (e.mask.values, e.key) for e in datapath.evict_idle(now=22.0)
        }
        # Re-lookup after eviction: both backends rebuild their index.
        verdict = datapath.process(FlowKey(ip_src=3, tp_dst=80, ip_proto=6), now=22.5)
        assert verdict.action == ALLOW
    assert evicted["tss"]  # the early flows idled out
    for name in BACKENDS:
        assert evicted[name] == evicted["tss"], name
        assert_backends_agree(dps["tss"], dps[name])


@pytest.mark.parametrize("name", BACKENDS)
def test_evict_idle_is_remove_where(name):
    """Idle eviction picks ``remove_where``'s victims in its order (mask
    scan order, then insertion) on a detonated, shuffled store."""
    stores = []
    for _ in range(2):
        datapath = Datapath(
            SIPDP.build_table(), DatapathConfig(microflow_capacity=0, megaflow_backend=name)
        )
        keys = list(ColocatedTraceGenerator(
            datapath.flow_table, base={"ip_proto": PROTO_TCP}
        ).generate().keys)
        datapath.process_batch(keys)
        for i, entry in enumerate(datapath.megaflows.entries()):  # staggered stamps
            entry.last_used = float(i * 37 % 10)
        datapath.megaflows.shuffle_masks(seed=7)
        stores.append(datapath.megaflows)
    evicting, reference = stores
    expected = remove_where(reference, lambda e: 9.0 - e.last_used >= 6.0)
    got = evicting.evict_idle(9.0, 6.0)
    assert 0 < len(got) < len(keys)
    assert [(e.mask.values, e.key) for e in got] == [(e.mask.values, e.key) for e in expected]
    assert [(e.mask.values, e.key) for e in evicting.entries()] == [
        (e.mask.values, e.key) for e in reference.entries()
    ]
    assert evicting.masks() == reference.masks()
    assert evicting.evict_idle(9.0, 6.0) == []


def test_attack_detonation_identical_and_probe_bounded():
    """The SipDp staircase: same cache contents, bounded chain probes."""
    dps = {}
    for name in BACKENDS:
        datapath = Datapath(
            SIPDP.build_table(),
            DatapathConfig(microflow_capacity=0, megaflow_backend=name),
        )
        trace = ColocatedTraceGenerator(
            datapath.flow_table, base={"ip_proto": PROTO_TCP}
        ).generate()
        datapath.process_batch(list(trace.keys))
        dps[name] = (datapath, list(trace.keys))

    (tss_dp, keys), (chain_dp, _) = dps["tss"], dps["tuplechain"]
    assert tss_dp.n_masks == chain_dp.n_masks > 500
    assert_backends_agree(tss_dp, chain_dp)

    # Replay: identical verdicts; grouped probes bounded by the chain
    # structure (a handful of groups), not the 500+ mask scan.
    tss_dp.megaflows.clear_memo()
    chain_dp.megaflows.clear_memo()
    expected = tss_dp.process_batch(keys)
    got = chain_dp.process_batch(keys)
    assert [v.action for v in expected] == [v.action for v in got]
    assert [v.path for v in expected] == [v.path for v in got]
    probes = [v.masks_inspected for v in got]
    assert chain_dp.megaflows.n_groups <= 3
    assert max(probes) < chain_dp.n_masks / 4
    assert max(probes) < 120


def test_tuplechain_group_accounting():
    """Groups reflect the constrained-field structure."""
    cache = TupleChainSearch()
    generator = MegaflowGenerator(SIPDP.build_table())
    for i in range(64):
        key = FlowKey(ip_src=i << 26, tp_dst=80 ^ (1 << (i % 16)), ip_proto=6)
        cache.insert(generator.generate(key).entry)
    groups = Counter(tuple(bool(m) for m in mask.values) for mask in cache.masks())
    assert sum(groups.values()) == cache.n_masks > 1
    assert len(groups) == cache.n_groups


def test_find_and_probe_mask_shared_surface():
    """The store surface behaves identically across backends."""
    for name in BACKENDS:
        cache = make_megaflow_backend(name)
        generator = MegaflowGenerator(SIPDP.build_table())
        key = FlowKey(ip_src=9, tp_dst=80, ip_proto=6)
        entry = cache.insert(generator.generate(key).entry)
        assert cache.find(key) is entry
        assert cache.find_entry(entry)
        assert cache.probe_mask(entry.mask, key, now=1.0) is entry
        assert [e for e in cache.entries() if e.mask == entry.mask] == [entry]
        assert cache.memory_bytes() > 0
        assert len(cache) == 1
        verify_disjoint(cache)
        assert cache.remove_entries([entry]) == [entry]
        assert cache.find(key) is None
