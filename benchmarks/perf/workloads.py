"""The seven workloads: set-up, oracle check, and one fixed-size timed sample.

Every workload is closed-loop from one thread and sized by :class:`Sizes`
(never by the host: shards/workers are fixed at 2).  All seeded inputs come
from ``seed``; the program under test only ever sees the generated keys.

Interface the runner drives (see ``run.py``)::

    build()          one complete set-up; replaces (and closes) the previous one
    check()          untimed warm-up pass + oracle -> (ops attempted, ops failed)
    sample()         the timed body: a fixed number of ops -> ops done
    slices()         the same body as a generator the runner may pause between
    after_sample()   untimed per-sample verification -> ops failed
    worker_pids()    pmd worker processes whose CPU/RSS count towards the metrics
    close()          release everything (idempotent)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.classifier.slowpath import MegaflowGenerator
from repro.core.general import GeneralTraceGenerator
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP, SIPSPDP, UseCase
from repro.experiments import fig8c
from repro.experiments.backendsweep import attacker_rules
from repro.experiments.testbeds import TRUSTED_IP, build_testbed
from repro.netsim.cloud import KUBERNETES_ENV, SYNTHETIC_ENV
from repro.netsim.cms import PolicyRule
from repro.netsim.engine import Simulation
from repro.netsim.fleet import Fleet
from repro.netsim.flows import ActiveWindow, AttackSource
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.rss import uniform_key_hash
from repro.switch.sharded import ShardedDatapath

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

BURST = 256
N_SHARDS = 2  # fixed: the recorded `cpus` never resizes a workload


@dataclass(frozen=True)
class Sizes:
    """Op counts of one size class (``full`` is what BENCHMARK.json measures)."""

    label: str
    use_case: UseCase
    replay_keys: int
    fig8c: dict  # keyword overrides for fig8c.run
    fleet: dict  # racks / hosts / tenants / simulated seconds / pps


FULL = Sizes(
    label="full",
    use_case=SIPSPDP,
    replay_keys=4000,
    fig8c={},
    fleet=dict(n_racks=2, hosts_per_rack=10, tenants_per_host=1000,
               duration=20.0, slice=2.5, attack_start=5.0, attack_stop=15.0, attack_pps=1000.0),
)
SMOKE = Sizes(
    label="smoke",
    use_case=SIPDP,
    replay_keys=300,
    fig8c=dict(duration=32.0, victim_start=0.5, t1_attack_start=1.0,
               t2_acl_injection=4.0, t4_escalation=20.0, base_pps=10.0, escalated_pps=20.0),
    fleet=dict(n_racks=1, hosts_per_rack=2, tenants_per_host=50,
               duration=4.0, slice=1.0, attack_start=1.0, attack_stop=3.0, attack_pps=100.0),
)


# -- shared builders -----------------------------------------------------------------
def craft(sizes: Sizes, seed: int):
    """Flow table, co-located detonation trace, seeded §6.2 replay keys."""
    table = sizes.use_case.build_table()
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    trace_keys = list(trace.keys)
    replay = list(
        GeneralTraceGenerator(
            fields=sizes.use_case.allow_fields, base={"ip_proto": PROTO_TCP}, seed=seed
        ).keys(sizes.replay_keys)
    )
    return table, trace_keys, replay


def in_bursts(datapath, keys: list[FlowKey], spans=None, burst: int = BURST) -> list:
    """Feed ``keys`` through ``process_batch`` in rx bursts; returns the verdicts.

    With ``spans`` (a traced run) every call is recorded as one span.
    """
    verdicts = []
    for offset in range(0, len(keys), burst):
        chunk = keys[offset : offset + burst]
        if spans is None:
            batch = datapath.process_batch(chunk)
        else:
            with spans.span("switch.datapath.process_batch"):
                batch = datapath.process_batch(chunk)
        verdicts.extend(batch.verdicts)
    return verdicts


def detonate(datapath, trace_keys, replay_keys) -> None:
    """Carve the full staircase, shuffle mask order, install the replay keys.

    The mask order is the same for every seed (canonical trace order, one
    fixed shuffle).  Random keys land on a handful of masks (a first-bit
    mismatch is the likeliest), so where the shuffle puts those few decides
    the mean scan depth: a per-seed shuffle moved warm-replay throughput by
    a third between seeds, which says nothing about the code.
    """
    in_bursts(datapath, trace_keys)
    for shard in datapath.shards:
        shard.megaflows.shuffle_masks(seed=1)
    in_bursts(datapath, replay_keys)


def build_sharded(table, executor: str, transport: str = "shm") -> ShardedDatapath:
    """An empty 2-shard datapath, evenly spread, on the named executor."""
    return ShardedDatapath(
        table,
        DatapathConfig(
            microflow_capacity=0,
            executor=executor,
            executor_workers=N_SHARDS,
            executor_transport=transport,
        ),
        n_shards=N_SHARDS,
        hash_fn=uniform_key_hash,
    )


def arrival_order(trace_keys, seed: int) -> list[FlowKey]:
    """The attack trace in the order the cold workloads feed it: the seed decides."""
    keys = list(trace_keys)
    random.Random(seed).shuffle(keys)
    return keys


def clear_memos(datapath) -> None:
    for shard in datapath.shards:
        shard.megaflows.clear_memo()


def entry_set(entries) -> set:
    return {(entry.mask, entry.key) for entry in entries}


def oracle_entries(table, keys) -> set:
    """The ``(mask, masked key)`` set the scalar slow path generates for ``keys``."""
    generator = MegaflowGenerator(table, DatapathConfig().strategy)
    return entry_set(generator.generate(key).entry for key in keys)


def wrong_verdicts(table, keys, verdicts) -> int:
    """Fast-path verdicts that upcalled or disagree with the flow table."""
    generator = MegaflowGenerator(table, DatapathConfig().strategy)
    return sum(
        1
        for key, verdict in zip(keys, verdicts)
        if verdict.is_upcall or verdict.action != generator.classify(key)
    )


def fig8c_detonation():
    """A Kubernetes testbed and the SipSpDp trace crafted on it, as fig8c.run() does."""
    testbed = build_testbed(KUBERNETES_ENV)
    trace = testbed.attack_trace(
        [
            PolicyRule(dst_port=80),
            PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
            PolicyRule(src_port=12345),
        ],
        label="SipSpDp",
    )
    return testbed, trace


def golden(workload: str, sizes: Sizes) -> str | None:
    return json.loads(GOLDEN_PATH.read_text()).get(f"{workload}.{sizes.label}.seed0")


class Workload:
    name = ""
    #: the runner rebuilds before every sample, each rebuild one more
    #: ``setup_s`` reading: for a set-up the sample consumes, and for one that
    #: is cheap next to a sample, so that its readings spread over the run
    #: (three back-to-back 0.25 s builds all land in one burst of host noise).
    rebuild_per_sample = False

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.spans = None  # set by a traced run: sample() records its calls

    def build(self) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        raise NotImplementedError

    def sample(self) -> int:
        raise NotImplementedError

    def slices(self):
        """The sample as timed slices (ops done in each).  The runner reads
        the host speed between slices; one slice unless a workload can pause."""
        yield self.sample()

    def after_sample(self) -> int:
        return 0

    def worker_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        pass


# -- single-datapath workloads -------------------------------------------------------
class WarmReplay(Workload):
    """Pure read path over a detonated cache: scan + confirm + per-key loop."""

    name = "warm_replay"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.datapath = None

    def _make_datapath(self):
        return Datapath(self.table, DatapathConfig(microflow_capacity=0))

    def build(self) -> None:
        self.close()
        self.table, self.trace_keys, self.replay = craft(self.sizes, self.seed)
        self.datapath = self._make_datapath()
        detonate(self.datapath, self.trace_keys, self.replay)

    def check(self) -> tuple[int, int]:
        clear_memos(self.datapath)
        verdicts = in_bursts(self.datapath, self.replay)
        return len(self.replay), wrong_verdicts(self.table, self.replay, verdicts)

    def sample(self) -> int:
        clear_memos(self.datapath)
        in_bursts(self.datapath, self.replay, self.spans)
        return len(self.replay)

    def close(self) -> None:
        if self.datapath is not None:
            self.datapath.close()
            self.datapath = None


class ColdDetonation(WarmReplay):
    """Write path under steady attack: flush, then re-detonate in rx bursts."""

    name = "cold_detonation"

    def build(self) -> None:
        super().build()
        self._seeded_trace()

    def _seeded_trace(self) -> None:
        self.trace_keys = arrival_order(self.trace_keys, self.seed)
        self.expected = oracle_entries(self.table, self.trace_keys)

    def _pass(self) -> None:
        self.datapath.megaflows.flush()
        self.datapath.megaflows.clear_memo()
        in_bursts(self.datapath, self.trace_keys, self.spans)

    def _mismatch(self, datapath) -> int:
        ok = entry_set(datapath.megaflows.entries()) == self.expected
        return 0 if ok else len(self.trace_keys)

    def check(self) -> tuple[int, int]:
        self._pass()
        return len(self.trace_keys), self._mismatch(self.datapath)

    def sample(self) -> int:
        self._pass()
        return len(self.trace_keys)

    def after_sample(self) -> int:
        return self._mismatch(self.datapath)


class ColdBurst(ColdDetonation):
    """What every sweep's set-up does: a fresh datapath, the trace as one burst."""

    name = "cold_burst"
    rebuild_per_sample = True

    def build(self) -> None:
        self.close()
        self.table, self.trace_keys, _ = craft(self.sizes, self.seed)
        self._seeded_trace()

    def _pass(self) -> None:
        # A fresh table too: a Datapath subscribes to its flow table for
        # good, so reusing one table would keep every pass's cache alive.
        self.datapath = Datapath(
            self.sizes.use_case.build_table(), DatapathConfig(microflow_capacity=0)
        )
        in_bursts(self.datapath, self.trace_keys, self.spans, burst=len(self.trace_keys))


# -- sharded workloads ---------------------------------------------------------------
class ShardedReplay(WarmReplay):
    """Warm replay through 2 RSS shards; the executor is the variable."""

    executor = "serial"

    def _make_datapath(self):
        return build_sharded(self.table, self.executor)

    def check(self) -> tuple[int, int]:
        attempted, failed = super().check()
        union = entry_set(self.datapath.entries())
        if union != oracle_entries(self.table, self.trace_keys + self.replay):
            failed = attempted
        return attempted, failed

    def worker_pids(self) -> list[int]:
        info = getattr(self.datapath.executor, "worker_info", None)
        return [worker["pid"] for worker in info()] if info else []


class ShardedThread(ShardedReplay):
    name = "sharded_thread"
    executor = "thread"


class ShardedProcess(ShardedReplay):
    name = "sharded_process"
    executor = "process"


# -- netsim workloads ----------------------------------------------------------------
class NetsimAttack(Workload):
    """``fig8c.run()`` as the CLI runs it; an op is one simulated tick."""

    name = "netsim_attack"
    rebuild_per_sample = True

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.kwargs = dict(sizes.fig8c)
        # fig8c takes no seed; the seed moves the (harmless, pre-ACL) attack
        # start by a sub-second phase.  Seeds that are multiples of 10 are
        # the paper preset and are checked against the golden digest.
        phase = (seed % 10) / 10.0
        self.kwargs["t1_attack_start"] = self.kwargs.get("t1_attack_start", 30.0) + phase
        self.reference = golden(self.name, sizes) if phase == 0 else None
        self.digest = None

    def build(self) -> None:
        # The set-up share of fig8c.run(), which repeats it internally (it
        # is unmodified).
        fig8c_detonation()

    def _run(self) -> int:
        result = fig8c.run(**self.kwargs)
        self.digest = hashlib.sha256(json.dumps(result.rows).encode()).hexdigest()
        duration = self.kwargs.get("duration", 150.0)
        return round(duration / 0.1)

    def _mismatch(self, ops: int) -> int:
        if self.reference is None:
            self.reference = self.digest  # other seeds: run-to-run consistency
        return 0 if self.digest == self.reference else ops

    def check(self) -> tuple[int, int]:
        ops = self._run()
        return ops, self._mismatch(ops)

    def sample(self) -> int:
        self.ops = self._run()
        return self.ops

    def after_sample(self) -> int:
        return self._mismatch(self.ops)


class FleetTick(Workload):
    """cloudsweep's ``spread`` plan: 20 small datapaths fed 5-packet bursts."""

    name = "fleet_tick"
    rebuild_per_sample = True

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.fleet = None
        self.reference = golden(self.name, sizes) if seed == 0 else None

    def build(self) -> None:
        self.close()
        shape = self.sizes.fleet
        self.fleet = Fleet(
            SYNTHETIC_ENV,
            n_racks=shape["n_racks"],
            hosts_per_rack=shape["hosts_per_rack"],
            tenants_per_host=shape["tenants_per_host"],
            seed=self.seed,
            rack_period=1.0,
        )
        self.simulation = Simulation(dt=0.1, mode="event")
        self.fleet.register(self.simulation)
        rules = attacker_rules("SipDp")
        window = [ActiveWindow(shape["attack_start"], shape["attack_stop"])]
        hosts = list(self.fleet.hosts())
        for host in hosts:
            trace = host.detonation_trace(rules, label="SipDp")
            self.simulation.add(
                AttackSource(
                    host=host,
                    keys=trace.keys,
                    pps=shape["attack_pps"] / len(hosts),
                    windows=window,
                    name=f"attacker-{host.name}",
                    period=0.1,
                )
            )
        self.ops = len(hosts) * round(shape["duration"] / 0.1)

    def check(self) -> tuple[int, int]:
        ops = self.sample()
        return ops, self.after_sample()

    def slices(self):
        # Simulation.run() resumes exactly (integer tick counter), so the
        # run is cut into slices the runner can read the host speed between.
        shape = self.sizes.fleet
        n_slices = round(shape["duration"] / shape["slice"])
        for index in range(n_slices):
            if index * shape["slice"] == shape["attack_start"]:
                self.fleet.start_recording()
            self.simulation.run(shape["slice"])
            yield self.ops // n_slices

    def sample(self) -> int:
        return sum(self.slices())

    def after_sample(self) -> int:
        digest = hashlib.sha256(self.fleet.floors().tobytes()).hexdigest()
        if self.reference is None:
            self.reference = digest
        return 0 if digest == self.reference else self.ops

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        WarmReplay,
        ColdDetonation,
        ColdBurst,
        ShardedThread,
        ShardedProcess,
        NetsimAttack,
        FleetTick,
    )
}
