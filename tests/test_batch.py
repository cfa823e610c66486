"""Differential tests: the batch pipeline ≡ the sequential pipeline.

The batched datapath is an optimisation, never a semantic change: for any
rule set, traffic mix, scan order, and mid-stream cache churn, running a
key sequence through ``lookup_batch``/``process_batch`` must produce the
same entries, ``masks_inspected``, verdicts, statistics, and installed
megaflows as the per-key path.  These tests drive both pipelines over
random inputs (hypothesis plus seeded fuzz) and compare transcripts.
"""

from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.classifier.kernel as kernel_module
import repro.classifier.tss as tss_module
from repro.classifier.actions import ALLOW, DENY
from repro.classifier.backend import MegaflowStore
from repro.classifier.flowtable import FlowTable
from repro.classifier.kernel import cffi_kernel_available, to_column_matrix
from repro.classifier.rule import FlowRule, Match
from repro.classifier.slowpath import MegaflowGenerator
from repro.classifier.tss import TupleSpaceSearch
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP, SIPSPDP
from repro.packet.fields import FIELDS, FlowKey, _FieldVector
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from tests.store_helpers import lookup_batch

FIELD_POOL = ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto")


# -- strategies -----------------------------------------------------------------

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


@st.composite
def flow_keys(draw):
    kwargs = {}
    for name in FIELD_POOL:
        width = FIELDS[name].width
        kwargs[name] = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return FlowKey(**kwargs)


def assert_results_equal(sequential, batched):
    assert len(sequential) == len(batched)
    for i, (a, b) in enumerate(zip(sequential, batched)):
        assert a.masks_inspected == b.masks_inspected, (
            f"key {i}: masks_inspected {a.masks_inspected} != {b.masks_inspected}"
        )
        assert (a.entry is None) == (b.entry is None), f"key {i}: hit mismatch"
        if a.entry is not None:
            assert a.entry.mask == b.entry.mask and a.entry.key == b.entry.key, f"key {i}"


BACKEND_STATS = ("stats_hits", "stats_misses", "stats_scans", "stats_scan_probes")


def assert_caches_equal(a: TupleSpaceSearch, b: TupleSpaceSearch):
    assert a.masks() == b.masks()
    assert sorted((e.mask.values, e.key) for e in a.entries()) == sorted(
        (e.mask.values, e.key) for e in b.entries()
    )
    assert a.stats_hits == b.stats_hits
    assert a.stats_misses == b.stats_misses


# -- lookup_batch ≡ lookup ------------------------------------------------------

@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    keys=st.lists(flow_keys(), min_size=1, max_size=30),
)
def test_lookup_batch_equivalent(rules, keys):
    """lookup_batch ≡ sequential lookup."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)

    def build():
        cache = TupleSpaceSearch()
        for key in keys:
            cache.insert(generator.generate(key).entry)
        return cache

    # Replay the keys (now all hits) plus the keys again (memo interplay)
    # through both paths.
    replay = list(keys) + list(keys)
    a, b = build(), build()
    sequential = [a.lookup(k, now=1.0) for k in replay]
    batched = lookup_batch(b, replay, now=1.0)
    assert_results_equal(sequential, list(batched))
    assert_caches_equal(a, b)


@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    keys=st.lists(flow_keys(), min_size=4, max_size=24),
    drop_every=st.integers(min_value=2, max_value=5),
)
def test_lookup_batch_equivalent_with_churn(rules, keys, drop_every):
    """Equivalence holds across mid-stream inserts and removals of masks."""
    table = FlowTable(rules=rules)
    generator = MegaflowGenerator(table)

    def run(batched: bool):
        cache = TupleSpaceSearch()
        transcript = []
        installed = []
        for round_no in range(3):
            # Phase: install entries for a rotating subset of the keys.
            for key in keys[round_no::3]:
                installed.append(cache.insert(generator.generate(key).entry))
            # Phase: look everything up (batch vs per-key).
            if batched:
                transcript.extend(lookup_batch(cache, keys, now=float(round_no)))
            else:
                transcript.extend(cache.lookup(k, now=float(round_no)) for k in keys)
            # Phase: remove every drop_every-th installed entry (retires
            # masks when their table empties, invalidating the accelerator).
            cache.remove_entries(installed[::drop_every])
        return transcript, cache

    seq_transcript, seq_cache = run(batched=False)
    batch_transcript, batch_cache = run(batched=True)
    assert_results_equal(seq_transcript, batch_transcript)
    assert_caches_equal(seq_cache, batch_cache)


@pytest.mark.usefixtures("scan_oracle")
def test_lookup_batch_empty_and_trivial():
    cache = TupleSpaceSearch()
    assert len(lookup_batch(cache, [])) == 0
    result = lookup_batch(cache, [FlowKey(tp_dst=80)])
    assert not result[0].hit and result[0].masks_inspected == 0
    assert sum(r.hit for r in result) == 0 and sum(r.masks_inspected for r in result) == 0


# -- batch_scanner without ``spawn`` ≡ lookup, under mid-batch inserts -----------

@st.composite
def scanner_scripts(draw):
    """A key sequence plus, before each key, entries to install first.

    The installed entries come from the same generator as everything else
    (so Inv(2) holds): for a key of the batch itself (covers a later or an
    earlier key), for a batch key with one bit flipped (usually the same
    mask under a different masked key, or a neighbouring mask), and for
    unrelated keys (cover nothing in the batch).
    """
    keys = draw(st.lists(flow_keys(), min_size=2, max_size=40))

    @st.composite
    def near_key(draw):
        values = dict(draw(st.sampled_from(keys)).items())
        name = draw(st.sampled_from(FIELD_POOL))
        values[name] ^= 1 << draw(st.integers(min_value=0, max_value=FIELDS[name].width - 1))
        return FlowKey(**values)

    inserts = draw(
        st.lists(
            st.lists(st.one_of(st.sampled_from(keys), near_key(), flow_keys()), max_size=2),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return keys, inserts


@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    script=scanner_scripts(),
    shuffle_every=st.sampled_from([0, 3, 8]),
    with_rows=st.booleans(),
)
def test_batch_scanner_without_spawn_replans_on_inserts(rules, script, shuffle_every, with_rows):
    """A scanner nobody names megaflows to stays ≡ lookup by replanning.

    ``shuffle_every`` reorders the mask list between ``result(i)`` calls
    (0: never): a scan-order change must make the scanner replan too.
    """
    keys, inserts = script
    generator = MegaflowGenerator(FlowTable(rules=rules))
    a, b = TupleSpaceSearch(check_invariants=True), TupleSpaceSearch(check_invariants=True)
    rows = to_column_matrix([key.values for key in keys]) if with_rows else None
    scanner = b.batch_scanner(keys, now=1.0, rows=rows)
    scanner.CHUNK_ELEMS = 1  # 32-key planning chunks: the longer scripts cross one
    for i, key in enumerate(keys):
        for cache in (a, b):
            for spawning_key in inserts[i]:
                cache.insert(generator.generate(spawning_key).entry, now=1.0)
            if shuffle_every and i % shuffle_every == shuffle_every - 1:
                cache.shuffle_masks(seed=i)
        expected = a.lookup(key, now=1.0)
        got = scanner.result(i)
        assert_results_equal([expected], [got])
        if got.entry is not None:
            assert got.entry is b.get_entry(got.entry.mask, got.entry.key)
            assert got.entry.hits == expected.entry.hits
        assert a._memo.keys() == b._memo.keys(), i
        for field in BACKEND_STATS:
            assert getattr(a, field) == getattr(b, field), (i, field)
    assert_caches_equal(a, b)


# -- process_batch ≡ process ----------------------------------------------------

def _mixed_traffic(rules, seed, count):
    """Traffic that exercises every level: repeats, fresh flows, noise."""
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


STATS_FIELDS = (
    "packets",
    "microflow_hits",
    "mask_cache_hits",
    "megaflow_hits",
    "upcalls",
    "installs",
    "install_rejected",
    "dead_entry_suppressed",
    "masks_inspected_total",
)


MICROFLOW_STATS = ("stats_hits", "stats_misses", "stats_evictions")


def assert_datapaths_equal(a: Datapath, b: Datapath):
    for field in STATS_FIELDS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field
    for field in BACKEND_STATS:
        assert getattr(a.megaflows, field) == getattr(b.megaflows, field), field
    assert (a.microflows is None) == (b.microflows is None)
    if a.microflows is not None:
        for field in MICROFLOW_STATS:
            assert getattr(a.microflows, field) == getattr(b.microflows, field), field
        # The LRU order, and what each microflow points at.
        assert [
            (key, entry.mask, entry.key) for key, entry in a.microflows._entries.items()
        ] == [(key, entry.mask, entry.key) for key, entry in b.microflows._entries.items()]
    assert a.megaflows.masks() == b.megaflows.masks()
    assert sorted((e.mask.values, e.key) for e in a.megaflows.entries()) == sorted(
        (e.mask.values, e.key) for e in b.megaflows.entries()
    )


def assert_verdicts_equal(sequential, batched):
    assert len(sequential) == len(batched)
    for i, (x, y) in enumerate(zip(sequential, batched)):
        assert x.action == y.action, i
        assert x.path == y.path, i
        assert x.masks_inspected == y.masks_inspected, i
        assert x.rules_examined == y.rules_examined, i
        assert (x.installed is None) == (y.installed is None), i
        if x.installed is not None:
            assert (x.installed.mask, x.installed.key) == (y.installed.mask, y.installed.key), i


@pytest.mark.usefixtures("scan_oracle")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=rule_sets(),
    seed=st.integers(min_value=0, max_value=2**31),
    microflow=st.sampled_from([0, 4, 8]),
    mask_cache=st.booleans(),
    burst_sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
    lookup_every=st.integers(min_value=0, max_value=3),
    kill=st.sampled_from([None, "kill_entries", "remove_entries"]),
)
def test_process_batch_equivalent(
    rules, seed, microflow, mask_cache, burst_sizes, lookup_every, kill
):
    """process_batch ≡ sequential process across cache configurations.

    Burst boundaries cycle through ``burst_sizes``, so the TSS index's
    deferred appends carry over several bursts before the merge cadence
    drains them; after every ``lookup_every``-th burst (0: never) both
    stores serve a spawn-less ``lookup`` of the burst's first key, a reader
    that drains that backlog first.  A microflow capacity of 4 is smaller
    than most bursts, so one decided-miss run evicts its own keys.  With
    ``kill``, the megaflow of each burst's last key goes after the burst:
    through the datapath (its microflows go too, and it is dead-marked), or
    from the store alone, which leaves its microflows for a stale hit.
    """

    def mk():
        return Datapath(
            FlowTable(rules=list(rules)),
            DatapathConfig(
                microflow_capacity=microflow,
                enable_mask_cache=mask_cache,
                mask_cache_size=8,
            ),
        )

    keys = _mixed_traffic(rules, seed, 120)
    a, b = mk(), mk()
    sequential, batched = [], []
    start = 0
    for n, size in enumerate(itertools.cycle(burst_sizes), start=1):
        burst = keys[start : start + size]
        if not burst:
            break
        sequential.extend(a.process(k, now=1.0) for k in burst)
        batched.extend(b.process_batch(burst, now=1.0).verdicts)
        if lookup_every and n % lookup_every == 0:
            assert_results_equal(
                [a.megaflows.lookup(burst[0], now=1.0)], [b.megaflows.lookup(burst[0], now=1.0)]
            )
        if kill is not None:
            for datapath in (a, b):
                entry = datapath.megaflows.find(burst[-1])
                if entry is not None:
                    target = datapath if kill == "kill_entries" else datapath.megaflows
                    getattr(target, kill)([entry])
        start += size
    assert_verdicts_equal(sequential, batched)
    assert_datapaths_equal(a, b)


# One burst of the detonation trace x3 — the cycling attacker, and the shape
# of every sweep's set-up.  Almost every key is a plan miss looked up after
# the burst itself installed something, i.e. settled by the scanner's
# mid-burst identity probe, so these are the cases that probe could get
# wrong: recurring keys (probe must hit), and the three ways a generated
# megaflow is *not* installed (probe must keep missing).
KERNELS = ("numpy", "cffi") if cffi_kernel_available() else ("numpy",)


def _detonation_trace(use_case):
    table = use_case.build_table()
    return list(ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate().keys)


def _replay_burst(trace, copies=3, seed=7):
    keys = list(trace) * copies
    random.Random(seed).shuffle(keys)
    return keys


@pytest.mark.usefixtures("scan_oracle")
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("order", ["insertion", "reshuffled"])
@pytest.mark.parametrize("check_invariants", [True, False])
@pytest.mark.parametrize("case", ["replay", "flow_limit", "killed", "rejected_duplicates"])
def test_process_batch_one_burst_replay_equivalent(case, check_invariants, order, kernel):
    """trace x3 as ONE process_batch ≡ per-key process, not-installed paths included.

    Per-key ``process`` is the scalar engine (one ``generate`` per upcall).
    Both sides run with the caches' self-checks on, and again with them off
    — the configuration every experiment runs, where a deferred mask's scan
    position is trusted, not re-derived.  ``reshuffled`` cuts the burst in two
    around a ``shuffle_masks`` — burst, churn, burst, as every sweep's set-up
    detonates — so the second burst plans over a rebuilt index whose scan
    order is no longer insertion order.
    """
    trace = _detonation_trace(SIPDP)
    keys = _replay_burst(trace)
    max_megaflows = 200_000
    if case == "flow_limit":
        max_megaflows = len(trace) // 3  # reached mid-burst; the rest recur rejected
    elif case == "rejected_duplicates":
        # Adjacent duplicates past the limit: the first copy is rejected, the
        # second must miss again (and shares the first one's generation).
        max_megaflows = 40
        keys = [key for key in trace for _ in range(2)]

    def mk():
        datapath = Datapath(
            SIPDP.build_table(),
            DatapathConfig(
                microflow_capacity=0,
                max_megaflows=max_megaflows,
                check_invariants=check_invariants,
                scan_kernel=kernel,
            ),
        )
        if case == "killed":
            # Install a slice of the staircase, then kill part of it for
            # good (§8 quirk): those packets recur in the burst and must
            # stay on the slow path, uninstalled, every time.
            installed = [datapath.process(key).installed for key in trace[:60]]
            assert datapath.kill_entries(installed[::3], permanent=True) == len(installed[::3])
        return datapath

    a, b = mk(), mk()
    cut = len(keys) // 2
    for n, burst in enumerate([keys] if order == "insertion" else [keys[:cut], keys[cut:]]):
        if n:
            a.megaflows.shuffle_masks(seed=5)
            b.megaflows.shuffle_masks(seed=5)
        sequential, mask_counts = [], []
        for key in burst:
            mask_counts.append(a.n_masks)
            sequential.append(a.process(key, now=1.0))
        batch = b.process_batch(burst, now=1.0)
        assert_verdicts_equal(sequential, batch.verdicts)
        assert list(batch.mask_counts) == mask_counts
        assert batch.upcalls == sum(1 for v in sequential if v.is_upcall)
        for verdict in batch.verdicts:
            if verdict.installed is not None:
                stored = b.megaflows.get_entry(verdict.installed.mask, verdict.installed.key)
                assert stored is verdict.installed
        assert_datapaths_equal(a, b)
    if case in ("flow_limit", "rejected_duplicates"):
        assert b.stats.install_rejected > 0 and b.n_megaflows == max_megaflows
    elif case == "killed":
        assert b.stats.dead_entry_suppressed >= 20 * 3
    else:
        assert b.stats.upcalls == len(trace) and b.stats.megaflow_hits == 2 * len(trace)


def _counted(monkeypatch, owner, name, counts, label):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[label] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _count_column_derives(monkeypatch, counts) -> None:
    """Count the TSS store's column-matrix builds under whatever name
    ``tss`` bound ``to_column_matrix`` to: the ``matrix`` calls, the
    ``rows`` they convert, and the ``drains`` that had appends to make."""
    for name, value in list(vars(tss_module).items()):
        if value is kernel_module.to_column_matrix:

            def matrix(values_list, *args, _original=value):
                counts["matrix"] += 1
                counts["rows"] += len(values_list)
                return _original(values_list, *args)

            monkeypatch.setattr(tss_module, name, matrix)
    drain = TupleSpaceSearch._burst_drain

    def counting_drain(store):
        counts["drains"] += bool(store._burst_buf)
        return drain(store)

    monkeypatch.setattr(TupleSpaceSearch, "_burst_drain", counting_drain)


def test_one_burst_replay_bookkeeping_is_linear(monkeypatch):
    """Mid-burst coherence costs O(1) per packet — by exact counts, not clocks.

    The full 8k-mask SipSpDp trace x3 as one burst: comparisons, truth-dict
    probes and generation calls are each bounded by a small multiple of the
    burst, and a half-size burst halves them.  Column rows are derived once
    each: every new mask's and every entry's row in matrix builds, at most
    two per drain.  (The announced-insert sweep this replaced made ~7e7
    ``__eq__`` calls here through ``list.index`` and derived two column rows
    per install.)
    """
    trace = _detonation_trace(SIPSPDP)
    labels = ("eq", "get_entry", "generate_batch", "matrix", "rows", "drains")

    def run(part):
        keys = _replay_burst(part)
        datapath = Datapath(SIPSPDP.build_table(), DatapathConfig(microflow_capacity=0))
        counts = dict.fromkeys(labels, 0)
        with monkeypatch.context() as patch:
            _counted(patch, _FieldVector, "__eq__", counts, "eq")
            _counted(patch, MegaflowStore, "get_entry", counts, "get_entry")
            _counted(patch, MegaflowGenerator, "generate_batch", counts, "generate_batch")
            _count_column_derives(patch, counts)
            batch = datapath.process_batch(keys)
        assert batch.upcalls == len(part) and datapath.stats.megaflow_hits == 2 * len(part)
        return len(keys), datapath, counts

    for part in (trace, trace[: len(trace) // 2]):
        packets, datapath, counts = run(part)
        assert counts["eq"] <= 2 * packets
        assert counts["get_entry"] <= packets
        assert counts["generate_batch"] == 1
        assert 1 <= counts["drains"] and counts["matrix"] <= 2 * counts["drains"]
        assert counts["rows"] == datapath.n_masks + datapath.n_megaflows
        if part is trace:
            full = counts
    half = counts
    for label in ("eq", "get_entry"):
        assert 0.35 * full[label] <= half[label] <= 0.65 * full[label], (label, full, half)


@pytest.mark.parametrize("kernel", KERNELS)
def test_cold_burst_derives_no_mask_row_alone(monkeypatch, kernel):
    """A cold 256-packet burst drains once: one matrix build for its new
    masks' rows and one for its entries' rows — every mask row among them,
    none derived on its own."""
    keys = _detonation_trace(SIPSPDP)[:256]
    config = DatapathConfig(microflow_capacity=0, scan_kernel=kernel, check_invariants=True)
    datapath = Datapath(SIPSPDP.build_table(), config)
    counts = dict.fromkeys(("matrix", "rows", "drains"), 0)
    with monkeypatch.context() as patch:
        _count_column_derives(patch, counts)
        batch = datapath.process_batch(keys)
    assert batch.upcalls == len(keys) and datapath.n_masks > 2
    assert counts == {
        "matrix": 2,
        "rows": datapath.n_masks + datapath.n_megaflows,
        "drains": 1,
    }


@pytest.mark.usefixtures("scan_oracle")
def test_process_batch_mask_counts_track_installs():
    """mask_counts reports the pre-packet mask count, growing mid-batch."""
    table = FlowTable()
    table.add_rule(Match(tp_dst=(80, 0xFFFF)), ALLOW, priority=1, name="allow-80")
    table.add_default_deny()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    keys = [FlowKey(tp_dst=80, ip_proto=6), FlowKey(tp_dst=81, ip_proto=6)]
    batch = datapath.process_batch(keys)
    assert batch.mask_counts[0] == 0  # cold cache
    assert batch.mask_counts[1] >= 1  # first packet's install is visible
    assert len(batch) == 2 and batch.upcalls >= 1


@pytest.mark.usefixtures("scan_oracle")
def test_process_batch_duplicate_keys_hit_microflow():
    """A batch of duplicates must hit the microflow its first packet installs."""
    table = FlowTable()
    table.add_default_deny()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=16))
    key = FlowKey(tp_dst=443, ip_proto=6)
    batch = datapath.process_batch([key, key, key])
    paths = [v.path.value for v in batch.verdicts]
    assert paths[0] == "slow_path"
    assert paths[1] == "microflow" and paths[2] == "microflow"


# -- hypervisor batch accounting -------------------------------------------------

@pytest.mark.usefixtures("scan_oracle")
def test_inject_attack_batch_charges_like_sequential():
    from repro.netsim.hypervisor import HypervisorHost
    from repro.switch.costmodel import CostModel

    table_rules = [
        FlowRule(Match(tp_dst=(80, 0xFFFF)), ALLOW, priority=1, name="allow-80"),
        FlowRule(Match.any(), DENY, priority=-1, name="default"),
    ]

    def mk():
        datapath = Datapath(FlowTable(rules=list(table_rules)), DatapathConfig())
        return HypervisorHost(datapath, CostModel())

    keys = _mixed_traffic(table_rules, seed=3, count=64)
    a, b = mk(), mk()
    va = [a.inject_attack_batch([k], now=0.0)[0] for k in keys]
    vb = b.inject_attack_batch(keys, now=0.0)
    assert [v.action for v in va] == [v.action for v in vb]
    assert [v.path for v in va] == [v.path for v in vb]
    assert a._upcalls == b._upcalls
    units_a, units_b = sum(a._attack_units), sum(b._attack_units)
    assert abs(units_a - units_b) < 1e-6 * max(1.0, units_a)
