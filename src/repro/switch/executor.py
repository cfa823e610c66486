"""The parallel PMD execution engine: pluggable shard-executor strategies.

PR 2 modeled N PMD cores as N independent :class:`Datapath` shards, but
every shard still executed in one Python loop — the sharded datapath was a
*model* of multi-core, not an implementation of it.  This module is the
execution layer that actually fans the per-shard work out:

* ``serial`` — :class:`SerialShardExecutor`, the PR 2 behaviour: shards run
  one after another in the caller's thread.  The reference semantics every
  other strategy must reproduce verdict for verdict.
* ``thread`` — :class:`ThreadShardExecutor`, a persistent thread pool.  The
  per-shard numpy scan kernels release the GIL, so the (keys × masks)
  matrix passes of different shards genuinely overlap; pure-Python stages
  interleave under the GIL.  A per-shard lock serialises batch execution
  against management sweeps (revalidator, MFCGuard) so a sweep never reads
  a shard mid-batch.
* ``process`` — :class:`ProcessShardExecutor`, a persistent worker-process
  pool.  **The shards live in the workers**: each worker process owns a
  subset of the shard datapaths (round-robin by shard id) plus a private
  replica of the flow table, and the parent holds only lightweight
  :class:`ShardHandle` remote handles that speak a small message protocol
  over pipes.  ``process_batch`` scatters RSS-partitioned sub-batches to the
  owning workers and gathers their :class:`BatchVerdicts` — true
  multi-core wall-clock scaling, no GIL.  Under the default ``shm``
  transport the batch *data* bypasses the pipes entirely: keys travel as
  uint64 column matrices and verdicts come back as numeric arrays through
  per-worker shared-memory rings (:mod:`repro.switch.shm_ring`), with the
  pipe reduced to a sequence-number doorbell.  ``transport="pipe"``
  restores the PR 5 pickled path (also the automatic fallback for a batch
  that does not fit its ring).  Control operations and flow-table deltas
  always stay on the pipe — only the packet-rate data plane earns shared
  memory.

Why flow-table mutation ships as *deltas* under the ``process`` executor:
the flow table is the control plane and stays authoritative in the parent,
but each worker needs a replica for its shards' slow-path upcalls.
Re-shipping the whole table on every change would serialise O(|rules|)
per mutation, and sharing the parent's table (or the shards' caches) via
shared memory would re-introduce exactly the cross-core mutable state the
per-PMD design exists to avoid — every megaflow cache is private to its
core, so the only state that may cross the process boundary is messages.
A delta message (rules added / rule ids removed, applied with a single
change notification) keeps each worker's memory bounded by its own shards
plus one rule-list replica, and keeps the revalidation-flush count of a
worker shard identical to a serial shard's: one parent flow-table change
notification becomes exactly one replica notification, so ``stats.flushes``
stays executor-invariant.

Executor invariants (tested in ``tests/test_executor.py``):

* **Parallel ≡ serial, verdict for verdict.**  For every strategy,
  ``process_batch`` returns the same verdicts, ``mask_counts``,
  ``probe_costs`` and ``shard_ids`` as the serial executor, installs the
  same entry/mask unions, and leaves identical per-shard statistics and
  probe accounting (``stats_scans`` / ``stats_scan_probes``).  This holds
  because shards share nothing: within a shard the sub-batch preserves
  arrival order, and across shards the pipelines are independent, so any
  physical interleaving merges back to the serial transcript.
* **The PR 1/2/4 invariants hold under every executor** — dicts-as-truth
  and batch ≡ sequential per shard, probe accounting, hypervisor charge
  invariance, 1-shard ≡ plain datapath.
* **Deterministic merge.**  Sub-batch results are reassembled by original
  arrival index, shard by shard in shard-id order — the result never
  depends on which worker finished first.
* **Management operations are value-addressed across the process
  boundary.**  Entries returned by a worker are copies.  Every operation
  that can reach a shard is one row of :data:`SHARD_OPS`; a row whose
  ``by_value`` column is set (``kill_entries``, ``reinject``,
  ``megaflows.find_entry``) has its leading argument — one entry, or a
  list of them for ``kill_entries`` — resolved in the owning worker by
  ``(mask, masked key)`` — the same value identity the §8 dead-entry
  quirk already uses — before the real method runs.  The entry lists of
  other rows (``rebalance_install``) are never resolved: they are state
  in flight to be adopted, not addresses.  Packet batches are not
  rows: they travel only as ``run_batch`` messages.
* **One table, one message, one fan-out.**  The worker dispatch, the
  parent-side handles and :meth:`ShardExecutor.call_all` are all derived
  from :data:`SHARD_OPS`; a name that is not in it is refused in the
  parent before anything touches a pipe (and again in the worker).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import os
import threading
import traceback
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Callable

from repro.classifier.backend import MegaflowEntry
from repro.classifier.flowtable import FlowTable
from repro.exceptions import ExecutorError, SwitchError
from repro.packet.fields import FlowKey
from repro.switch.datapath import BatchVerdicts, Datapath, DatapathConfig
from repro.switch.shm_ring import (
    ShmRing,
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

__all__ = [
    "ShardOp",
    "SHARD_OPS",
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "ShardHandle",
    "shard_executor_names",
    "make_shard_executor",
]


# -- the shard-op table ------------------------------------------------------------
#
# Every management capability that must reach a shard wherever its executor put
# it is one row here.  Adding a capability is a ``Datapath`` (or backend) member
# plus one row; nothing else in this module names an operation.  A row stays
# only while code outside this module sends it (``tests/test_shard_ops.py``):
# a member that is only ever called on a local object needs none.


@dataclasses.dataclass(frozen=True)
class ShardOp:
    """One row of the shard-op table.

    Attributes:
        name: the member of the target object.
        target: ``"shard"`` (the :class:`Datapath`) or ``"backend"`` (its
            ``megaflows`` cache).
        kind: ``"get"`` reads the member, ``"call"`` invokes it.
        by_value: the leading argument is a :class:`MegaflowEntry` *copy*
            (or a list of copies) that the owning worker resolves to its
            own objects by ``(mask, masked key)`` before the call.
        fold: how :meth:`ShardExecutor.call_all` combines the per-shard
            answers — ``"list"`` (by shard id), ``"none"``, ``"sum"``
            (dataclasses field-wise), ``"max"`` or ``"concat"``.
    """

    name: str
    target: str = "shard"
    kind: str = "call"
    by_value: bool = False
    fold: str = "list"

    @property
    def key(self) -> str:
        """The name the op travels under; backend rows are ``megaflows.<name>``."""
        return self.name if self.target == "shard" else f"megaflows.{self.name}"


SHARD_OPS: dict[str, ShardOp] = {
    op.key: op
    for op in (
        ShardOp("n_masks", kind="get", fold="sum"),
        ShardOp("n_megaflows", kind="get", fold="sum"),
        ShardOp("scan_cost", kind="get", fold="max"),
        ShardOp("now", kind="get", fold="max"),
        ShardOp("stats", kind="get", fold="sum"),
        # Everything dpctl shows of a shard, in one message per worker.
        ShardOp("snapshot"),
        ShardOp("core_report", fold="concat"),
        ShardOp("process"),
        ShardOp("kill_entries", by_value=True),
        ShardOp("reinject", by_value=True, fold="none"),
        ShardOp("flush_caches", fold="none"),
        ShardOp("evict_idle", fold="concat"),
        # Live backend migration: the rebuild and swap run *inside* the
        # owning worker; only the shard's snapshot crosses back.
        ShardOp("migrate_backend_start"),
        ShardOp("migrate_backend_step"),
        ShardOp("migrate_backend_swap"),
        ShardOp("migrate_backend_abort"),
        # RSS re-map: extraction/installation run inside the owning worker;
        # what crosses the pipe is the moved-entry delta, never a snapshot.
        ShardOp("rebalance_extract"),
        ShardOp("rebalance_install"),
        ShardOp("expected_scan_cost", "backend"),
        ShardOp("entries", "backend", fold="concat"),
        ShardOp("masks", "backend", fold="concat"),
        ShardOp("find_entry", "backend", by_value=True),
        ShardOp("clear_memo", "backend"),
        ShardOp("shuffle_masks", "backend"),
    )
}


class _UnknownShardOp(SwitchError, AttributeError):
    """A name outside the table; also an ``AttributeError`` so ``hasattr`` /
    ``getattr(handle, name, default)`` on a remote handle behave."""


def shard_op(name: str) -> ShardOp:
    """The table row ``name`` travels under, or a :class:`SwitchError` naming it."""
    op = SHARD_OPS.get(name)
    if op is None:
        raise _UnknownShardOp(f"{name!r} is not a shard operation (no SHARD_OPS row)")
    return op


def _resolve_entry(shard: Datapath, entry):
    """The worker's own entry object for a by-value copy (or the copy), or
    a list of them for a list of copies.

    Falling back to the copy keeps value-keyed semantics working for
    entries that are no longer installed (``reinject`` of a killed entry,
    ``kill_entries`` marking an absent entry dead).
    """
    if not isinstance(entry, MegaflowEntry):
        return [_resolve_entry(shard, copy) for copy in entry]
    local = shard.megaflows.get_entry(entry.mask, entry.key)
    return entry if local is None else local


def _apply_op(shard: Datapath, op: ShardOp, args: tuple, kwargs: dict, remote: bool = False):
    """Run one table row on one shard — the only place an op executes.

    ``remote`` is set by the process worker: its arguments were pickled, so
    a ``by_value`` row's entry copies are resolved to the shard's own
    objects first (in-process callers already hold the real objects).
    """
    target = shard if op.target == "shard" else shard.megaflows
    if op.kind == "get":
        return getattr(target, op.name)
    if remote and op.by_value and args:
        args = (_resolve_entry(shard, args[0]), *args[1:])
    result = getattr(target, op.name)(*args, **kwargs)
    # A generator neither pickles nor survives the shard lock: make it concrete.
    return list(result) if isinstance(result, types.GeneratorType) else result


def _sum(answers: list):
    first = answers[0]
    if dataclasses.is_dataclass(first):  # counters records (DatapathStats): a fresh sum
        return type(first)(
            **{f.name: sum(getattr(a, f.name) for a in answers) for f in dataclasses.fields(first)}
        )
    return sum(answers)


_FOLDS: dict[str, Callable[[list], object]] = {
    "list": list,
    "none": lambda answers: None,
    "sum": _sum,
    "max": max,
    "concat": lambda answers: list(itertools.chain.from_iterable(answers)),
}


class ShardExecutor:
    """Strategy interface: how the per-PMD shards execute and are reached.

    Lifecycle: the sharded datapath constructs one executor, calls
    :meth:`build` exactly once (which creates the shard handles), drives
    batches through :meth:`run_batch`, and calls :meth:`close` when done.
    ``serial``/``thread`` build real in-process :class:`Datapath` shards;
    ``process`` builds :class:`ShardHandle` remote handles onto
    worker-owned shards.  Either way the handles expose the same
    processing and management surface, so every switch layer (hypervisor,
    revalidator, MFCGuard, dpctl) drives them identically, and
    :meth:`call_all` reaches every shard with one table op.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._shards: tuple = ()

    # -- lifecycle -----------------------------------------------------------
    def build(self, flow_table: FlowTable, config: DatapathConfig, n_shards: int) -> None:
        """Create the shard handles (called once by ShardedDatapath)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/workers; idempotent.  Shard state is discarded."""

    # -- execution -----------------------------------------------------------
    @property
    def shards(self) -> tuple:
        """The shard handles, indexed by shard id."""
        return self._shards

    def run_batch(
        self, buckets: dict[int, list[FlowKey]], now: float | None
    ) -> dict[int, BatchVerdicts]:
        """Run each shard's sub-batch; return per-shard verdicts.

        ``buckets`` maps shard id -> that shard's keys in arrival order.
        Implementations may run shards in any physical order/interleaving
        (shards share nothing), but each sub-batch must be that shard's
        ``process_batch`` transcript.
        """
        raise NotImplementedError

    # -- synchronisation -------------------------------------------------------
    def lock(self, shard_id: int):
        """Context manager serialising access to one shard (no-op default)."""
        return nullcontext()

    @contextmanager
    def maintenance(self):
        """Serialise a management sweep against in-flight batches.

        Revalidator and MFCGuard sweeps read and mutate every shard; under
        the ``thread`` executor this acquires all shard locks (in shard-id
        order, so sweeps cannot deadlock each other).
        """
        yield

    # -- the fan-out ---------------------------------------------------------------
    def call_all(self, name: str, *args, **kwargs):
        """Run table op ``name`` on every shard; fold the answers per its row.

        In-process strategies loop over the shards under each shard's
        lock; the ``process`` strategy sends one message per *worker*.
        """
        op = shard_op(name)  # an unknown name touches no shard
        answers = []
        for shard_id, shard in enumerate(self._shards):
            with self.lock(shard_id):
                answers.append(_apply_op(shard, op, args, kwargs))
        return _FOLDS[op.fold](answers)

    def describe(self) -> str:
        """Human-readable strategy label for dpctl/benchmark output."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._shards)} shards)"


class SerialShardExecutor(ShardExecutor):
    """The reference strategy: every shard runs in the caller's thread."""

    name = "serial"

    def build(self, flow_table: FlowTable, config: DatapathConfig, n_shards: int) -> None:
        self._shards = tuple(Datapath(flow_table, config) for _ in range(n_shards))

    def run_batch(
        self, buckets: dict[int, list[FlowKey]], now: float | None
    ) -> dict[int, BatchVerdicts]:
        return {
            shard_id: self._shards[shard_id].process_batch(keys, now=now)
            for shard_id, keys in sorted(buckets.items())
        }


class ThreadShardExecutor(ShardExecutor):
    """Persistent thread pool over in-process shards.

    The level-3 scan kernels are numpy passes that release the GIL, so
    different shards' matrix work overlaps on real cores; the remaining
    pure-Python stages interleave.  Every shard has a lock: batch tasks
    hold their shard's lock while running, and :meth:`maintenance` (taken
    by revalidator/MFCGuard sweeps) acquires all of them, so sweeps never
    observe a shard mid-batch.
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self._requested_workers = workers
        self._n_workers = 0
        self._pool: ThreadPoolExecutor | None = None
        self._locks: tuple[threading.RLock, ...] = ()

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def build(self, flow_table: FlowTable, config: DatapathConfig, n_shards: int) -> None:
        self._shards = tuple(Datapath(flow_table, config) for _ in range(n_shards))
        self._locks = tuple(threading.RLock() for _ in range(n_shards))
        self._n_workers = max(1, min(self._requested_workers or n_shards, n_shards))
        self._pool = ThreadPoolExecutor(
            max_workers=self._n_workers, thread_name_prefix="pmd-shard"
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def lock(self, shard_id: int):
        return self._locks[shard_id]

    @contextmanager
    def maintenance(self):
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()

    def _run_shard(self, shard_id: int, keys: list[FlowKey], now: float | None) -> BatchVerdicts:
        with self._locks[shard_id]:
            return self._shards[shard_id].process_batch(keys, now=now)

    def run_batch(
        self, buckets: dict[int, list[FlowKey]], now: float | None
    ) -> dict[int, BatchVerdicts]:
        if self._pool is None:
            raise SwitchError("thread executor is closed")
        futures = {
            shard_id: self._pool.submit(self._run_shard, shard_id, keys, now)
            for shard_id, keys in sorted(buckets.items())
        }
        # Gather in shard-id order: result assembly (and any raised error)
        # is deterministic regardless of completion order.
        return {shard_id: future.result() for shard_id, future in futures.items()}

    def describe(self) -> str:
        return f"{self.name}[{self._n_workers} workers]"


# -- the process worker ------------------------------------------------------------
#
# Message protocol (parent -> worker request, worker -> parent ("ok", value)
# or ("err", traceback-string)):
#
#   ("batch", [(shard_id, keys), ...], now)        -> [(shard_id, BatchVerdicts), ...]
#   ("shm_batch", seq)                             -> ("ring", seq) | ("pipe", results)
#       (doorbell: the batch itself is record ``seq`` in the submit ring;
#        verdicts come back in the complete ring, or inline over the pipe
#        when the complete ring is full)
#   ("op", shard_id, name, args, kwargs)           -> SHARD_OPS[name] applied to that shard
#   ("op", None, name, args, kwargs)               -> [(shard_id, answer), ...] for every
#       shard the worker owns, in one round trip (what ``call_all`` broadcasts)
#   ("worker_info",)                               -> {pid, shards, transport}
#   ("flowtable", removed_rule_ids, [(rule_id, FlowRule), ...]) -> None
#   ("close",)                                     -> None (worker exits)
#
# ``op`` is the only management message: what it may name, whether it reads
# or calls, and whether its leading MegaflowEntry argument is resolved to the
# worker's own object by (mask, masked key) — so identity-based bookkeeping
# (microflow invalidation, the per-mask dicts) stays correct inside the
# worker — are all columns of SHARD_OPS.  The parent refuses unknown names
# before sending; the worker looks the name up again before it runs anything.


def _worker_handle(op: tuple, table: FlowTable, rules_by_id: dict, shards: dict[int, Datapath]):
    kind = op[0]
    if kind == "batch":
        _, jobs, now = op
        return [(sid, shards[sid].process_batch(keys, now=now)) for sid, keys in jobs]
    if kind == "op":
        _, sid, name, args, kwargs = op
        row = shard_op(name)
        if sid is None:
            return [(owned, _apply_op(shard, row, args, kwargs, remote=True)) for owned, shard in shards.items()]
        return _apply_op(shards[sid], row, args, kwargs, remote=True)
    if kind == "flowtable":
        _, removed_ids, added = op
        removed = [rules_by_id.pop(rid) for rid in removed_ids if rid in rules_by_id]
        for rid, rule in added:
            rules_by_id[rid] = rule
        table.apply_delta(add=[rule for _, rule in added], remove=removed)
        return None
    raise SwitchError(f"unknown worker op {kind!r}")


def _worker_shm_batch(
    seq: int,
    submit: "ShmRing",
    complete: "ShmRing",
    shards: dict[int, Datapath],
):
    """Serve one doorbell: decode the ring record, process, reply.

    The verdicts go back through the complete ring when they fit
    (``("ring", seq)``), otherwise inline over the pipe (``("pipe",
    results)``) — either way the pipe reply is the completion signal.
    """
    payload = submit.try_read()
    if payload is None:
        raise SwitchError(f"shm doorbell {seq} arrived with an empty submit ring")
    jobs, now = decode_batch(payload, seq)
    # The wire matrix IS the kernel's key layout: hand it to the scanner
    # as the precomputed row matrix so the scan never re-derives it.
    results = [
        (sid, shards[sid].process_batch(keys, now=now, rows=rows))
        for sid, keys, rows in jobs
    ]
    if encode_verdicts(complete, seq, results):
        return ("ring", seq)
    return ("pipe", results)


def _worker_main(
    conn: "Connection",
    shard_ids: tuple[int, ...],
    init_rules: list,
    config: DatapathConfig,
    ring_names: tuple[str, str] | None = None,
) -> None:
    """One worker process: replica flow table + its owned shards, forever."""
    submit = complete = None
    if ring_names is not None:
        submit = ShmRing.attach(ring_names[0])
        complete = ShmRing.attach(ring_names[1])
    rules_by_id = {rid: rule for rid, rule in init_rules}
    table = FlowTable(rules=[rule for _, rule in init_rules], name="pmd-worker-replica")
    shards = {sid: Datapath(table, config) for sid in shard_ids}
    try:
        while True:
            try:
                op = conn.recv()
            except (EOFError, OSError):  # parent died; nothing left to serve
                return
            if op[0] == "close":
                conn.send(("ok", None))
                conn.close()
                return
            try:
                if op[0] == "shm_batch":
                    value = _worker_shm_batch(op[1], submit, complete, shards)
                elif op[0] == "worker_info":
                    value = {
                        "pid": os.getpid(),
                        "shards": shard_ids,
                        "transport": "shm" if submit is not None else "pipe",
                    }
                else:
                    value = _worker_handle(op, table, rules_by_id, shards)
                conn.send(("ok", value))
            except Exception as exc:  # ship the failure; keep serving
                conn.send(("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
    finally:
        if submit is not None:
            submit.close()
        if complete is not None:
            complete.close()


class ShardHandle:
    """Parent-side remote handle onto one worker-owned shard (or its backend).

    Duck-typed to the slice of the :class:`Datapath` surface — and, through
    ``.megaflows``, of the :class:`MegaflowStore` surface — that
    :data:`SHARD_OPS` exports: attribute access resolves the name against
    the table, ``get`` rows answer with the value, ``call`` rows with a
    callable that forwards its arguments, and any other name is refused
    here, before anything touches the pipe.  Entries returned are copies;
    ``by_value`` rows resolve entry arguments in the worker.  Packet
    batches have no row: they flow only through the executor's
    scatter/gather path (:meth:`ProcessShardExecutor.run_batch`).
    """

    def __init__(
        self,
        executor: "ProcessShardExecutor",
        shard_id: int,
        config: DatapathConfig | None = None,
        prefix: str = "",
    ):
        # Weak: the executor holds its handles, so a strong back-reference
        # would leave a dropped datapath for the cycle collector.
        self._executor = weakref.proxy(executor)
        self._prefix = prefix
        self.shard_id = shard_id
        if not prefix:
            self.config = config
            self.megaflows = ShardHandle(executor, shard_id, prefix="megaflows.")

    def __getattr__(self, attr: str):
        if attr.startswith("_"):  # copy/pickle protocol probes, not shard ops
            raise AttributeError(attr)
        name = self._prefix + attr
        if shard_op(name).kind == "get":
            return self._executor.call_shard(self.shard_id, name)
        return functools.partial(self._executor.call_shard, self.shard_id, name)

    def __repr__(self) -> str:
        return f"ShardHandle({self._prefix}shard {self.shard_id} @ {self._executor.describe()})"


class ProcessShardExecutor(ShardExecutor):
    """Persistent worker-process pool; the shards live in the workers.

    Workers are forked once at :meth:`build` (spawn where fork is
    unavailable) and stay up for the datapath's lifetime, so per-batch
    cost is one scatter/gather of pickled keys and verdicts — no
    per-batch process creation, no re-detonation.  Shards are assigned to
    workers round-robin by shard id; with ``workers >= n_shards`` each
    shard gets a dedicated worker (one PMD core each, the deployment the
    model mirrors).

    The parent keeps the authoritative flow table and ships every change
    as a delta message (see the module docstring for why deltas, not
    snapshots or shared memory); worker replicas apply each delta with a
    single change notification, preserving the serial flush cadence.
    """

    name = "process"

    #: Per-direction ring capacity under the ``shm`` transport.
    DEFAULT_RING_BYTES = 1 << 20

    def __init__(
        self,
        workers: int | None = None,
        transport: str = "shm",
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        super().__init__()
        if transport not in ("shm", "pipe"):
            raise SwitchError(
                f"unknown process transport {transport!r}; known: pipe, shm"
            )
        self._requested_workers = workers
        self._transport = transport
        self._ring_bytes = ring_bytes
        self._submit_rings: list = []  # parent writes batches
        self._complete_rings: list = []  # parent reads verdicts
        self._seq = itertools.count(1)
        self._last_ops: dict[int, str] = {}  # wid -> last op completed by worker
        self._conns: list = []
        self._procs: list = []
        self._worker_of: dict[int, int] = {}
        self._shards_of: dict[int, tuple[int, ...]] = {}
        self._flow_table: FlowTable | None = None
        self._rule_ids: dict[int, tuple[int, object]] = {}  # id(rule) -> (rid, rule)
        self._next_rule_id = 0
        self._closed = False

    @property
    def transport(self) -> str:
        """The data-plane transport actually in use (``shm`` or ``pipe``)."""
        return self._transport

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    @staticmethod
    def _context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return multiprocessing.get_context()

    def build(self, flow_table: FlowTable, config: DatapathConfig, n_shards: int) -> None:
        self._flow_table = flow_table
        n_workers = max(1, min(self._requested_workers or n_shards, n_shards))
        # Round-robin by shard id: one mapping, read both ways.
        self._worker_of = {shard_id: shard_id % n_workers for shard_id in range(n_shards)}
        self._shards_of = {wid: tuple(range(wid, n_shards, n_workers)) for wid in range(n_workers)}
        init_rules = [(self._rule_id(rule), rule) for rule in flow_table.rules_by_priority()]
        if self._transport == "shm":
            try:
                for _ in range(n_workers):
                    self._submit_rings.append(ShmRing.create(self._ring_bytes))
                    self._complete_rings.append(ShmRing.create(self._ring_bytes))
            except OSError:  # no usable /dev/shm: degrade, don't die
                for ring in self._submit_rings + self._complete_rings:
                    ring.close()
                self._submit_rings = []
                self._complete_rings = []
                self._transport = "pipe"
        ctx = self._context()
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            ring_names = None
            if self._transport == "shm":
                ring_names = (self._submit_rings[wid].name, self._complete_rings[wid].name)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._shards_of[wid], init_rules, config, ring_names),
                name=f"pmd-worker-{wid}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._shards = tuple(ShardHandle(self, sid, config) for sid in range(n_shards))
        # The control plane stays in the parent; every table change ships
        # to the workers as a delta before the next message is processed.
        # The table holds the subscription weakly: it lasts while the
        # executor does.
        flow_table.subscribe(self._ship_flow_table_delta)

    # -- rule-id bookkeeping -------------------------------------------------------
    def _rule_id(self, rule) -> int:
        known = self._rule_ids.get(id(rule))
        if known is not None:
            return known[0]
        rid = self._next_rule_id
        self._next_rule_id += 1
        self._rule_ids[id(rule)] = (rid, rule)  # keep the ref: id() stays valid
        return rid

    def _ship_flow_table_delta(self) -> None:
        """Compute and broadcast one flow-table delta (adds + removed ids).

        Called from the parent table's change notification; by the time it
        runs the table already holds the new state, so the delta is the
        diff between the rules previously shipped (tracked by object
        identity — the parent owns the authoritative rule objects) and the
        rules now in the table.  Workers apply the delta with a single
        replica notification, so one parent change equals one worker-side
        revalidation flush.
        """
        if self._closed or self._flow_table is None:
            return
        current = self._flow_table.rules_by_priority()
        current_ids = {id(rule) for rule in current}
        removed_rids = [
            rid for obj_id, (rid, _rule) in self._rule_ids.items() if obj_id not in current_ids
        ]
        self._rule_ids = {
            obj_id: entry for obj_id, entry in self._rule_ids.items() if obj_id in current_ids
        }
        added = [
            (self._rule_id(rule), rule) for rule in current if id(rule) not in self._rule_ids
        ]
        if removed_rids or added:
            self._broadcast(("flowtable", removed_rids, added))

    # -- messaging ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed or not self._conns:
            raise SwitchError("process executor is closed")

    def _worker_died(self, wid: int, op_name: str, exc: Exception) -> ExecutorError:
        """A descriptive :class:`ExecutorError` for a dead worker.

        A dead worker used to surface as the raw pipe ``EOFError`` /
        ``BrokenPipeError``; name the worker, its shards, its exit code and
        the last op it completed so the failure is attributable.
        """
        proc = self._procs[wid] if wid < len(self._procs) else None
        exitcode = None
        if proc is not None:
            proc.join(timeout=0.1)
            exitcode = proc.exitcode
        shards = list(self._shards_of.get(wid, ()))
        last = self._last_ops.get(wid, "<none>")
        return ExecutorError(
            f"pmd worker {wid} (shards {shards}) died during op {op_name!r} "
            f"(exit code {exitcode}, last completed op {last!r}): "
            f"{type(exc).__name__}: {exc}"
        )

    @staticmethod
    def _label(op: tuple) -> str:
        """What error messages call a message: its kind, or the table op it carries."""
        return op[2] if op[0] == "op" else op[0]

    def _send(self, wid: int, op: tuple) -> None:
        """The one place a message leaves the parent."""
        try:
            self._conns[wid].send(op)
        except (BrokenPipeError, OSError) as exc:
            raise self._worker_died(wid, self._label(op), exc) from exc

    def _request(self, wid: int, op: tuple):
        self._check_open()
        self._send(wid, op)
        return self._gather([wid], self._label(op))[wid]

    def _gather(self, wids: list[int], op_name: str) -> dict[int, object]:
        """Receive one reply per listed worker, draining every connection
        before raising — a failed worker must not leave sibling replies
        queued, or the next request would read a stale answer."""
        replies: dict[int, object] = {}
        errors: list[str] = []
        died = False
        for wid in wids:
            try:
                status, value = self._conns[wid].recv()
            except (EOFError, OSError) as exc:
                errors.append(str(self._worker_died(wid, op_name, exc)))
                died = True
                continue
            if status == "err":
                errors.append(f"pmd worker {wid} failed op {op_name!r}:\n{value}")
            else:
                replies[wid] = value
                self._last_ops[wid] = op_name
        if errors:
            raise (ExecutorError if died else SwitchError)("; ".join(errors))
        return replies

    def _broadcast(self, op: tuple) -> list:
        self._check_open()
        for wid in range(len(self._conns)):
            self._send(wid, op)
        replies = self._gather(list(range(len(self._conns))), self._label(op))
        return [replies[wid] for wid in range(len(self._conns))]

    # -- execution --------------------------------------------------------------------
    def run_batch(
        self, buckets: dict[int, list[FlowKey]], now: float | None
    ) -> dict[int, BatchVerdicts]:
        self._check_open()
        jobs_by_worker: dict[int, list[tuple[int, list[FlowKey]]]] = {}
        for shard_id, keys in sorted(buckets.items()):
            jobs_by_worker.setdefault(self._worker_of[shard_id], []).append((shard_id, keys))
        # Scatter to every involved worker first, then gather — this is
        # where the parallelism comes from.  Under the shm transport the
        # batch record goes into the worker's submit ring and only a
        # ("shm_batch", seq) doorbell crosses the pipe; a batch that does
        # not fit (oversized, or the worker lags) falls back to the
        # pickled pipe message — same verdicts either way.
        ring_seq: dict[int, int] = {}
        for wid, jobs in jobs_by_worker.items():
            if self._submit_rings:
                seq = next(self._seq)
                if encode_batch(self._submit_rings[wid], seq, jobs, now):
                    ring_seq[wid] = seq
                    self._send(wid, ("shm_batch", seq))
                    continue
            self._send(wid, ("batch", jobs, now))
        merged: dict[int, BatchVerdicts] = {}
        for wid, value in self._gather(list(jobs_by_worker), "batch").items():
            if wid in ring_seq:
                kind, data = value
                if kind == "ring":
                    payload = self._complete_rings[wid].try_read()
                    if payload is None:
                        raise SwitchError(
                            f"pmd worker {wid} signalled ring verdicts for batch "
                            f"{data} but the complete ring is empty"
                        )
                    value = decode_verdicts(payload, ring_seq[wid])
                else:  # worker's complete ring was full; verdicts came inline
                    value = data
            for shard_id, verdicts in value:
                merged[shard_id] = verdicts
        return merged

    def worker_info(self) -> list[dict]:
        """Per-worker {pid, shards, transport}, by worker id."""
        return self._broadcast(("worker_info",))

    def call_shard(self, shard_id: int, name: str, *args, **kwargs):
        """Run table op ``name`` on one worker-owned shard (what handles call)."""
        shard_op(name)  # refuse unknown names before anything touches the pipe
        return self._request(self._worker_of[shard_id], ("op", shard_id, name, args, kwargs))

    def call_all(self, name: str, *args, **kwargs):
        fold = _FOLDS[shard_op(name).fold]
        by_shard = dict(itertools.chain.from_iterable(self._broadcast(("op", None, name, args, kwargs))))
        return fold([by_shard[sid] for sid in range(len(self._shards))])

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
                conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                pass
            finally:
                conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for ring in self._submit_rings + self._complete_rings:
            ring.close()  # owner side: releases the mapping and unlinks
        self._submit_rings = []
        self._complete_rings = []
        self._conns = []
        self._procs = []

    def describe(self) -> str:
        return f"{self.name}[{self.n_workers} workers]/{self._transport}"

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


# -- registry --------------------------------------------------------------------

# name -> factory(workers, transport); each strategy takes what it uses.
_SHARD_EXECUTORS: dict[str, Callable[..., ShardExecutor]] = {
    SerialShardExecutor.name: lambda workers, transport: SerialShardExecutor(),
    ThreadShardExecutor.name: lambda workers, transport: ThreadShardExecutor(workers),
    ProcessShardExecutor.name: ProcessShardExecutor,
}


def shard_executor_names() -> tuple[str, ...]:
    """All registered executor strategy names, sorted."""
    return tuple(sorted(_SHARD_EXECUTORS))


def make_shard_executor(
    name: str,
    workers: int | None = None,
    transport: str | None = None,
) -> ShardExecutor:
    """Build a shard executor by registry name.

    Args:
        name: registered strategy (``"serial"``, ``"thread"``, ``"process"``).
        workers: worker cap for pooled strategies (``None``/0 → one per
            shard); ignored by ``serial``.
        transport: data-plane transport for ``process`` (``"shm"`` default,
            ``"pipe"`` for the PR 5 pickled path); ignored by in-process
            strategies.
    """
    factory = _SHARD_EXECUTORS.get(name)
    if factory is None:
        raise SwitchError(
            f"unknown shard executor {name!r}; known: {', '.join(shard_executor_names())}"
        )
    return factory(workers or None, transport or "shm")
