"""Per-layer attribution (``--trace 1``): timed calls into each module's public API.

Everything here runs on *twins* — instances built by the same set-up as
the workload's — so the instance the end-to-end numbers come from is never
perturbed.  Every timed call is one span (``harness.Spans``); a metric is a
span total divided by the ops it covered.  Layer = module of ``repro``.

A trace run reports every ``per_layer`` name of BENCHMARK.json.  A layer that is not
on a workload's path is not replayed for it and reads 0 there (see the
README's layer -> workload table).
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time

import numpy as np
from harness import BENCHMARK, Spans
from workloads import (
    BURST,
    N_SHARDS,
    WarmReplay,
    arrival_order,
    build_sharded,
    clear_memos,
    detonate,
    entry_set,
    fig8c_detonation,
)

from repro.classifier.backend import MegaflowEntry, make_megaflow_backend
from repro.classifier.kernel import to_column_matrix
from repro.classifier.microflow import MicroflowCache
from repro.classifier.slowpath import MegaflowGenerator
from repro.core.tracegen import ColocatedTraceGenerator
from repro.experiments import fig8c
from repro.experiments.testbeds import build_testbed
from repro.netsim import settlement
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.engine import Simulation
from repro.netsim.fleet import Fleet, TenantStream
from repro.netsim.flows import AttackSource
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.revalidator import Revalidator
from repro.switch.shm_ring import (
    ShmRing,
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)

_TIME_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}

SINGLE = ("warm_replay", "cold_detonation", "cold_burst")
SHARDED = ("sharded_thread", "sharded_process")
NETSIM = ("netsim_attack", "fleet_tick")


def chunks(items, size: int = BURST):
    for offset in range(0, len(items), size):
        yield items[offset : offset + size]


class Tracer:
    """The spans and per-layer metrics of one trace run.

    Every timed call sits in a ``spans.window()``, so the durations the
    metrics are computed from are reference-host seconds (``harness``).
    """

    def __init__(self, sizes, seed: int):
        self.sizes = sizes
        self.smoke = sizes.label == "smoke"  # no timing counts: one repeat does
        self.seed = seed
        self.spans = Spans()
        self.values: dict[str, float] = dict.fromkeys(UNITS, 0.0)

    def put(self, name: str, value: float) -> None:
        """Store ``value`` — seconds for a time metric — in the metric's unit."""
        self.values[name] = value * _TIME_SCALE.get(UNITS[name], 1.0)


# -- every workload ------------------------------------------------------------------
def common_layers(t: Tracer, kernel_build_s: float) -> None:
    spans = t.spans
    t.put("classifier.kernel.build_s", kernel_build_s)
    table = t.sizes.use_case.build_table()
    n = 2000
    with spans.window():
        with spans.span("core.tracegen.generate"):
            ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        with spans.span("packet.fields.key_build"):
            for i in range(n):
                FlowKey(ip_src=i, ip_dst=0x0A000002, ip_proto=PROTO_TCP, tp_src=i & 0xFFFF, tp_dst=80)
    t.put("core.tracegen.generate_s", spans.seconds("core.tracegen.generate"))
    t.put("packet.fields.key_build_ns", spans.seconds("packet.fields.key_build") / n)


# -- one detonated datapath (fixture: a built WarmReplay) -----------------------------
def warm_layers(t: Tracer, fix: WarmReplay) -> None:
    """The read path, taken apart: columns -> plan -> confirm -> the rest."""
    spans, dp, keys = t.spans, fix.datapath, fix.replay
    store = dp.megaflows
    scans, probes = store.stats_scans, store.stats_scan_probes
    passes = 3  # taken apart and whole by turns, so both see the same host
    for _ in range(passes):
        clear_memos(dp)
        with spans.window():
            for burst in chunks(keys):
                with spans.span("classifier.kernel.columns"):
                    rows = to_column_matrix([key.values for key in burst])
                # The scan plan is built lazily by the first result() call.
                with spans.span("classifier.kernel.plan"):
                    scanner = store.batch_scanner(burst, now=dp.now, rows=rows)
                    scanner.result(0)
                with spans.span("classifier.tss.confirm"):
                    for i in range(1, len(burst)):
                        scanner.result(i)
        clear_memos(dp)
        with spans.window():
            for burst in chunks(keys):
                with spans.span("switch.datapath.process_batch.warm"):
                    dp.process_batch(burst)
    n = passes * len(keys)
    t.put("classifier.tss.probes_per_key",
          (store.stats_scan_probes - probes) / max(store.stats_scans - scans, 1))
    parts = 0.0
    for metric, span_name in (
        ("classifier.kernel.columns_ns_per_key", "classifier.kernel.columns"),
        ("classifier.kernel.plan_ns_per_key", "classifier.kernel.plan"),
        ("classifier.tss.confirm_ns_per_key", "classifier.tss.confirm"),
    ):
        per_key = spans.seconds(span_name) / n
        parts += per_key
        t.put(metric, per_key)
    whole = spans.seconds("switch.datapath.process_batch.warm") / n
    t.put("switch.datapath.batch_self_ns_per_key", whole - parts)

    # The same plan from the numpy kernel, on a store holding the same entries.
    twin = make_megaflow_backend("tss", scan_kernel="numpy")
    twin.insert_batch(
        MegaflowEntry(e.mask, e.key, e.action, e.source_rule) for e in store.entries()
    )
    sub = keys[: 4 * BURST]
    for burst in chunks(sub):
        rows = to_column_matrix([key.values for key in burst])
        with spans.window(), spans.span("classifier.kernel.plan.numpy"):
            twin.batch_scanner(burst, now=0.0, rows=rows).result(0)
    t.put("classifier.kernel.plan_ns_per_key.numpy",
          spans.seconds("classifier.kernel.plan.numpy") / len(sub))


def scalar_layers(t: Tracer, fix: WarmReplay) -> None:
    """Per-call fixed costs: scalar lookup/process, 5-key bursts, sweeps."""
    spans, dp = t.spans, fix.datapath
    sub = fix.replay[:300]
    clear_memos(dp)
    with spans.window(), spans.span("classifier.tss.lookup"):
        for key in sub:
            dp.megaflows.lookup(key, now=dp.now)
    t.put("classifier.tss.lookup_ns_per_key", spans.seconds("classifier.tss.lookup") / len(sub))
    clear_memos(dp)
    with spans.window(), spans.span("switch.datapath.process"):
        for key in sub:
            dp.process(key)
    t.put("switch.datapath.process_ns_per_key", spans.seconds("switch.datapath.process") / len(sub))
    clear_memos(dp)
    small = list(chunks(fix.replay[:1000], 5))
    with spans.window():
        for burst in small:
            with spans.span("switch.datapath.small_batch"):
                dp.process_batch(burst)
    t.put("switch.datapath.small_batch_us_per_call",
          spans.seconds("switch.datapath.small_batch") / len(small))
    # Steady-state sweeps: nothing is idle, every entry is still visited.
    revalidator = Revalidator(dp)
    with spans.window():
        for _ in range(3):
            with spans.span("classifier.backend.evict"):
                dp.megaflows.evict_idle(dp.now, dp.config.idle_timeout)
            with spans.span("switch.revalidator.sweep"):
                revalidator.sweep(dp.now)
    t.put("classifier.backend.evict_ms", statistics.median(spans.durations("classifier.backend.evict")))
    t.put("switch.revalidator.sweep_ms", statistics.median(spans.durations("switch.revalidator.sweep")))


def cold_layers(t: Tracer, fix: WarmReplay) -> None:
    """The write path: generate, insert, and what process_batch adds on top."""
    spans, keys = t.spans, arrival_order(fix.trace_keys, t.seed)
    n = len(keys)
    config = DatapathConfig(microflow_capacity=0)
    fresh_table = t.sizes.use_case.build_table

    generator = MegaflowGenerator(fix.table, config.strategy)
    sub = keys[:1000]
    gc.collect()
    with spans.window(), spans.span("classifier.slowpath.generate"):
        for key in sub:
            generator.generate(key)
    t.put("classifier.slowpath.generate_us_per_key",
          spans.seconds("classifier.slowpath.generate") / len(sub))

    # b256 mirrors cold_detonation: rx bursts, decision trie already warm.
    generator = MegaflowGenerator(fix.table, config.strategy)
    for burst in chunks(keys):
        generator.generate_batch(burst)
    gc.collect()
    with spans.window():
        for burst in chunks(keys):
            with spans.span("classifier.slowpath.generate_batch.b256"):
                generator.generate_batch(burst)
    generate_b256 = spans.seconds("classifier.slowpath.generate_batch.b256") / n
    t.put("classifier.slowpath.generate_batch_us_per_key.b256", generate_b256)

    # ball mirrors cold_burst: one call, cold trie.  Nothing this long can be
    # bracketed tightly, so it (and the whole call below) is the median of 3.
    for _ in range(1 if t.smoke else 3):
        generator = MegaflowGenerator(fix.table, config.strategy)
        gc.collect()
        with spans.window(), spans.span("classifier.slowpath.generate_batch.ball"):
            results = generator.generate_batch(keys)
    generate_ball = statistics.median(spans.durations("classifier.slowpath.generate_batch.ball")) / n
    t.put("classifier.slowpath.generate_batch_us_per_key.ball", generate_ball)

    store = make_megaflow_backend("tss", scan_kernel=config.scan_kernel)
    entries = [result.entry for result in results]
    gc.collect()
    with spans.window():
        for chunk in chunks(entries):
            with spans.span("classifier.backend.insert"):
                store.insert_batch(chunk)
    insert = spans.seconds("classifier.backend.insert") / len(entries)
    t.put("classifier.backend.insert_us_per_entry", insert)
    t.put("classifier.backend.memory_bytes", store.memory_bytes())
    with spans.window(), spans.span("classifier.backend.flush"):
        store.flush()
    t.put("classifier.backend.flush_ms", spans.seconds("classifier.backend.flush"))

    dp = Datapath(fresh_table(), config)
    for burst in chunks(keys):  # warms the datapath's own decision trie
        dp.process_batch(burst)
    dp.megaflows.flush()
    gc.collect()
    for group in chunks(list(chunks(keys)), 8):  # a window per 8 bursts (~0.15 s)
        with spans.window():
            for burst in group:
                with spans.span("switch.datapath.process_batch.cold_b256"):
                    dp.process_batch(burst)
    cold = spans.seconds("switch.datapath.process_batch.cold_b256") / n
    t.put("switch.datapath.cold_residual_us_per_key.b256", cold - generate_b256 - insert)

    for _ in range(1 if t.smoke else 3):
        dp = Datapath(fresh_table(), config)
        gc.collect()
        with spans.window(), spans.span("switch.datapath.process_batch.cold_ball"):
            dp.process_batch(keys)
    cold = statistics.median(spans.durations("switch.datapath.process_batch.cold_ball")) / n
    t.put("switch.datapath.cold_residual_us_per_key.ball", cold - generate_ball - insert)


# -- two shards, four ways to run them (fixture: a built ShardedReplay) ----------------
def _partitioned(datapath, burst):
    buckets = datapath.rss.partition(burst)
    return {sid: [burst[i] for i in indices] for sid, indices in buckets.items()}


def _same_verdicts(ours, reference) -> bool:
    return (
        [(v.action, v.path, v.masks_inspected) for v in ours.verdicts]
        == [(v.action, v.path, v.masks_inspected) for v in reference.verdicts]
        and ours.mask_counts == reference.mask_counts
        and ours.shard_ids == reference.shard_ids
    )


def _timed_passes(spans, datapath, keys, passes: int, call) -> list[float]:
    """Seconds per pass of ``call(burst)`` over ``keys``, a window per pass.

    ``call`` records its own spans.  One untimed pass comes first, so that
    the timed ones find this datapath's tables in cache, as the workload's
    own samples do (the twins evict each other: timed by turns, every pass
    read 18 % slow).
    """
    clear_memos(datapath)
    for burst in chunks(keys):
        datapath.process_batch(burst)
    totals = []
    for _ in range(passes):
        clear_memos(datapath)
        first = len(spans.records)
        with spans.window():
            for burst in chunks(keys):
                call(burst)
        totals.append(sum(spans.duration(record) for record in spans.records[first:]))
    return totals


def sharded_layers(t: Tracer, fix) -> list[str]:
    """Returns where the workload's executor disagrees with the serial twin."""
    spans, keys = t.spans, fix.replay
    failures: list[str] = []
    n = len(keys)
    own = "thread" if fix.executor == "thread" else "process_shm"
    twins = {own: fix.datapath}
    try:
        for name, executor, transport in (
            ("serial", "serial", "shm"),
            ("thread", "thread", "shm"),
            ("process_shm", "process", "shm"),
            ("process_pipe", "process", "pipe"),
        ):
            if name in twins:
                continue
            twins[name] = build_sharded(fix.table, executor, transport)
            detonate(twins[name], fix.trace_keys, keys)
        serial = twins["serial"]

        with spans.window(), spans.span("switch.executor.spawn"):
            empty = build_sharded(fix.table, "process", "shm")
            empty.core_report()  # one round trip: both workers are up
        empty.close()
        t.put("switch.executor.spawn_s", spans.seconds("switch.executor.spawn"))

        counts = [0] * N_SHARDS
        with spans.window():
            for burst in chunks(keys):
                with spans.span("switch.rss.partition"):
                    buckets = serial.rss.partition(burst)
                for sid, indices in buckets.items():
                    counts[sid] += len(indices)
        partition = spans.seconds("switch.rss.partition") / n
        t.put("switch.rss.partition_ns_per_key", partition)
        t.put("switch.rss.shard_imbalance", max(counts) / (n / N_SHARDS))

        # A block of passes each — the serial critical path, the sharded
        # front end on the workload's own executor, run_batch on each of the
        # four — and the median pass of each block: a process-executor pass
        # now and then reads a third slow.
        turns = 1 if t.smoke else 9
        per_burst = []  # serial: each burst's per-shard spans

        def shard_by_shard(burst):
            first = len(spans.records)
            for sid, sub in sorted(_partitioned(serial, burst).items()):
                with spans.span("switch.datapath.process_batch.shard"):
                    serial.shards[sid].process_batch(sub)
            per_burst.append(spans.records[first:])

        def front_end(burst):
            with spans.span("switch.sharded.process_batch"):
                fix.datapath.process_batch(burst)

        def run_batch_on(name):
            def call(burst):
                sub = _partitioned(twins[name], burst)
                with spans.span(f"switch.executor.run_batch.{name}"):
                    twins[name].executor.run_batch(sub, None)

            return call

        work = statistics.median(_timed_passes(spans, serial, keys, turns, shard_by_shard))
        critical = statistics.median(
            sum(max(spans.duration(record) for record in records) for records in one_pass)
            for one_pass in chunks(per_burst, len(per_burst) // turns)
        )
        whole = statistics.median(_timed_passes(spans, fix.datapath, keys, turns, front_end))
        run_batch = {
            name: statistics.median(_timed_passes(spans, twin, keys, turns, run_batch_on(name)))
            for name, twin in twins.items()
        }
        for name, seconds in run_batch.items():
            t.put(f"switch.executor.run_batch_ns_per_key.{name}", seconds / n)
        t.put("switch.sharded.merge_ns_per_key", whole / n - partition - run_batch[own] / n)

        for name in ("thread", "process_shm"):
            t.put(f"switch.executor.wait_ns_per_key.{name}", (run_batch[name] - critical) / n)
            t.put(f"switch.executor.parallel_efficiency.{name}",
                  work / (N_SHARDS * run_batch[name]))
            # Ten more passes put 300 calls behind the p95 (19 passes x 16 bursts).
            _timed_passes(spans, twins[name], keys, 0 if t.smoke else 10, run_batch_on(name))
            calls = sorted(spans.durations(f"switch.executor.run_batch.{name}"))
            t.put(f"switch.executor.call_p95_ms.{name}", calls[int(0.95 * (len(calls) - 1))])

        # The serial twin as the verdict-for-verdict oracle of the workload's executor.
        clear_memos(fix.datapath)
        clear_memos(serial)
        for burst in chunks(keys):
            if not _same_verdicts(fix.datapath.process_batch(burst), serial.process_batch(burst)):
                failures.append(f"{fix.name}: verdicts differ from the serial twin")
                break
        if entry_set(fix.datapath.entries()) != entry_set(serial.entries()):
            failures.append(f"{fix.name}: entry union differs from the serial twin")

        _transport_layers(t, serial, keys)
    finally:
        for name, twin in twins.items():
            if name != own:
                twin.close()
    return failures


def _transport_layers(t: Tracer, serial, keys) -> None:
    """What one batch costs to ship: the shm codec against pickling it."""
    spans = t.spans
    n = len(keys)
    ring = ShmRing.create(1 << 20)
    try:
        with spans.window():
            for seq, burst in enumerate(chunks(keys), start=1):
                jobs = sorted(_partitioned(serial, burst).items())
                results = sorted(serial.executor.run_batch(dict(jobs), None).items())
                with spans.span("switch.shm_ring.encode"):
                    encode_batch(ring, seq, jobs, None)
                payload = ring.try_read()
                with spans.span("switch.shm_ring.decode"):
                    decode_batch(payload, seq)
                with spans.span("switch.shm_ring.verdict_roundtrip"):
                    encode_verdicts(ring, seq, results)
                    decode_verdicts(ring.try_read(), seq)
                with spans.span("switch.executor.pickle"):
                    pickle.loads(pickle.dumps(("batch", jobs, None)))
                    pickle.loads(pickle.dumps(("ok", results)))
    finally:
        ring.close()
    t.put("switch.shm_ring.encode_ns_per_key", spans.seconds("switch.shm_ring.encode") / n)
    t.put("switch.shm_ring.decode_ns_per_key", spans.seconds("switch.shm_ring.decode") / n)
    t.put("switch.shm_ring.verdict_roundtrip_ns_per_key",
          spans.seconds("switch.shm_ring.verdict_roundtrip") / n)
    t.put("switch.executor.pickle_ns_per_key", spans.seconds("switch.executor.pickle") / n)


# -- the simulator's components -------------------------------------------------------
class _Idle:
    def tick(self, now: float, dt: float) -> None:
        pass


def netsim_layers(t: Tracer, fix: WarmReplay) -> None:
    spans = t.spans
    cache = MicroflowCache(256)
    hot = fix.replay[:200]
    for key in hot:
        cache.insert(key, fix.datapath.megaflows.find(key))
    with spans.window(), spans.span("classifier.microflow.hit"):
        for _ in range(20):
            for key in hot:
                cache.lookup(key)
    t.put("classifier.microflow.hit_ns", spans.seconds("classifier.microflow.hit") / (20 * len(hot)))

    # One contended hypervisor, detonated the way fig8c detonates it.
    testbed, trace = fig8c_detonation()
    host = testbed.server.host
    victim = testbed.add_victim_flow("victim", offered_gbps=1.0, kind="tcp")
    attacker = AttackSource(host=host, keys=trace.keys, pps=1000.0)
    warm_ticks = 10 if t.smoke else 100  # 100 ticks replay the whole trace once
    ticks = 10 if t.smoke else 50
    for i in range(warm_ticks):
        attacker.tick(i * 0.1, 0.1)
    with spans.window():
        for i in range(warm_ticks, warm_ticks + ticks):
            victim.tick(i * 0.1, 0.1)
            with spans.span("netsim.flows.attack_tick"):
                attacker.tick(i * 0.1, 0.1)
            with spans.span("netsim.hypervisor.host_tick"):
                host.tick(i * 0.1, 0.1)
    t.put("netsim.flows.attack_tick_us", spans.seconds("netsim.flows.attack_tick") / ticks)
    t.put("netsim.hypervisor.host_tick_us", spans.seconds("netsim.hypervisor.host_tick") / ticks)

    n_hosts, n_tenants = (2, 50) if t.smoke else (10, 1000)
    n = n_hosts * n_tenants
    with spans.window(), spans.span("netsim.fleet.stream"):
        for h in range(n_hosts):
            TenantStream(t.seed, 0, h, n_tenants).build()
    t.put("netsim.fleet.stream_tenants_per_s", n / spans.seconds("netsim.fleet.stream"))
    fleet = Fleet(SYNTHETIC_ENV, n_racks=1, hosts_per_rack=n_hosts,
                  tenants_per_host=n_tenants, seed=t.seed)
    try:
        with spans.window():
            for i in range(1, 11):
                with spans.span("netsim.fleet.rack_tick"):
                    fleet.racks[0].tick(float(i), 1.0)
        t.put("netsim.fleet.rack_tick_ms", spans.seconds("netsim.fleet.rack_tick") / 10)
        model = SYNTHETIC_ENV.cost_model
        reports = [r for h in fleet.hosts() for r in h.datapath.core_report()]
        core = settlement.core_costs(
            reports, [model.budget_units_per_sec] * len(reports), model, SYNTHETIC_ENV.quirks
        )
    finally:
        fleet.close()
    victims = np.arange(n, dtype=np.intp)
    cores = victims % len(reports)
    protected = np.zeros(n, dtype=bool)
    with spans.window():
        for _ in range(20):
            with spans.span("netsim.settlement.settle_rates"):
                settlement.settle_rates(core, victims, cores, protected, n,
                                        model.link_gbps / n, model.unit_bits)
    t.put("netsim.settlement.settle_ns_per_tenant",
          spans.seconds("netsim.settlement.settle_rates") / (20 * n))

    simulation = Simulation(dt=0.1, mode="event")
    for _ in range(20):
        simulation.add(_Idle())
    with spans.window(), spans.span("netsim.engine.run"):
        simulation.run(100.0)
    t.put("netsim.engine.event_ns", spans.seconds("netsim.engine.run") / (20 * 1000))


# -- the workload itself, untraced then traced ------------------------------------------
_FRESH_STATE = ("cold_burst", "netsim_attack", "fleet_tick")  # counters start at 0 each sample


def _counters(wl, captured) -> tuple[int, int]:
    """(upcalls, packets) summed over the datapaths the workload drives."""
    if wl.name == "netsim_attack":
        datapaths = [captured[0].server.datapath]
    elif wl.name == "fleet_tick":
        datapaths = [host.datapath for host in wl.fleet.hosts()]
    else:
        datapaths = [wl.datapath]
    stats = [datapath.stats for datapath in datapaths]
    return sum(s.upcalls for s in stats), sum(s.packets for s in stats)


def _replayed_parts_ns(values: dict[str, float]) -> dict[str, float]:
    """Per workload: the replayed parts that should add up to its wall per op."""
    v = values
    parts = {
        "warm_replay": v["classifier.kernel.columns_ns_per_key"]
        + v["classifier.kernel.plan_ns_per_key"]
        + v["classifier.tss.confirm_ns_per_key"]
        + max(v["switch.datapath.batch_self_ns_per_key"], 0.0),
        "cold_detonation": 1e3 * (
            v["classifier.slowpath.generate_batch_us_per_key.b256"]
            + v["classifier.backend.insert_us_per_entry"]
            + max(v["switch.datapath.cold_residual_us_per_key.b256"], 0.0)
        ),
        "cold_burst": 1e3 * (
            v["classifier.slowpath.generate_batch_us_per_key.ball"]
            + v["classifier.backend.insert_us_per_entry"]
            + max(v["switch.datapath.cold_residual_us_per_key.ball"], 0.0)
        ),
    }
    for name, own in (("sharded_thread", "thread"), ("sharded_process", "process_shm")):
        parts[name] = (
            v["switch.rss.partition_ns_per_key"]
            + v[f"switch.executor.run_batch_ns_per_key.{own}"]
            + max(v["switch.sharded.merge_ns_per_key"], 0.0)
        )
    return parts


def workload_layers(t: Tracer, wl) -> None:
    """Overhead of tracing the real workload, its fast-path exits, and how
    much of its untraced wall the replayed parts leave unexplained."""
    spans = t.spans
    captured = []
    if wl.name == "netsim_attack":
        # fig8c.run() is unmodified; capture the testbed it builds (the
        # first of its two) to read the datapath counters afterwards.
        def capturing(*args, **kwargs):
            captured.append(build_testbed(*args, **kwargs))
            return captured[-1]

        fig8c.build_testbed = capturing
    per_op: dict[str, list[float]] = {"untraced": [], "traced": []}
    began = time.perf_counter()
    try:
        # Untraced and traced samples by turns, so both see the same host.
        # At least 3 pairs, and up to 15 while they fit in 4 s.
        at_least, budget = (1, 0.0) if t.smoke else (3, 4.0)
        while len(per_op["traced"]) < at_least or (
            len(per_op["traced"]) < 15 and time.perf_counter() - began < budget
        ):
            for kind, readings in per_op.items():
                if wl.rebuild_per_sample:
                    wl.build()
                captured.clear()
                upcalls, packets = (0, 0) if wl.name in _FRESH_STATE else _counters(wl, captured)
                wl.spans = spans if kind == "traced" else None
                with spans.window(), spans.span(f"workload.sample.{kind}") as sample:
                    ops = wl.sample()
                readings.append(spans.duration(sample) / ops)
    finally:
        wl.spans = None
        fig8c.build_testbed = build_testbed
    upcalls_after, packets_after = _counters(wl, captured)
    t.put("switch.datapath.fastpath_exit_share",
          (upcalls_after - upcalls) / max(packets_after - packets, 1))
    untraced = statistics.median(per_op["untraced"])
    t.put("trace.overhead_ratio", untraced / statistics.median(per_op["traced"]))
    parts = _replayed_parts_ns(t.values)
    if wl.name in parts:
        t.put("trace.unattributed_share", 1.0 - parts[wl.name] / (1e9 * untraced))
