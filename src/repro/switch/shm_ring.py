"""Zero-copy shared-memory batch transport for the process executor.

PR 5's ``process`` executor round-trips every batch as pickled ``FlowKey``
lists and ``BatchVerdicts`` over pipes — the committed 1-CPU baseline even
records 0.75× against serial, pure IPC tax.  This module is the data plane
that replaces it: per-worker SPSC byte rings over
:mod:`multiprocessing.shared_memory`, carrying

* **submit records** — a batch of keys as its ``(N x N_COLUMNS)`` uint64
  column matrix (the :data:`repro.classifier.kernel.COLUMN_SPLITS` layout,
  i.e. exactly the accelerator's wire format), written straight from the
  numpy buffer into the ring via ``memoryview`` — no pickle, no
  per-key objects on the wire;
* **complete records** — the verdicts as numeric arrays (action kind /
  out port / path / ``masks_inspected`` / ``rules_examined`` /
  ``mask_counts`` / ``probe_costs``) plus a pickled *sparse* residue of
  installed entries (empty on a hot replay, which is the case being
  optimised).

The pipe protocol remains the control plane: a batch is announced by a tiny
``("shm_batch", seq)`` doorbell message after its record is in the ring, and
the worker's pipe reply carries the completing sequence number — so there is
no shared-memory spin-wait (a busy-poll would burn the second core the
executor exists to exploit).  The embedded sequence number makes torn or
re-ordered records detectable: a decoder finding a record whose sequence
differs from its doorbell raises instead of mis-attributing verdicts.  A
record that does not fit the ring (oversized batch, slow consumer) simply
falls back to the PR 5 pickled-pipe path for that message — the transports
are verdict-identical, so the fallback is a pure performance event.

Ring layout: a 24-byte header of three little-endian u64 control words
(``head`` = bytes consumed, ``tail`` = bytes produced, both monotonic;
``capacity``), then ``capacity`` data bytes.  Records are 8-aligned with a
u64 length prefix; since offsets and capacity stay ≡ 0 (mod 8) the prefix
never wraps, and payloads wrap with a split copy.  The capacity lives in
the header because ``shared_memory`` rounds segment sizes up to a page on
attach.  Single producer, single consumer, and the doorbell's pipe write
orders the ring stores before the reader looks — no locks needed.
"""

from __future__ import annotations

import pickle
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.classifier.actions import Action, ActionKind
from repro.classifier.kernel import COLUMN_SPLITS, N_COLUMNS, keys_to_matrix
from repro.exceptions import SwitchError
from repro.packet.fields import FIELD_ORDER, FlowKey
from repro.switch.datapath import BatchVerdicts, PacketVerdict, PathTaken

__all__ = [
    "ShmRing",
    "encode_batch",
    "decode_batch",
    "encode_verdicts",
    "decode_verdicts",
    "matrix_to_keys",
]

_HEADER_BYTES = 24


def _aligned(n: int) -> int:
    return (n + 7) & ~7


def _tracker_forget(shm: shared_memory.SharedMemory) -> None:
    """Take the segment out of the resource tracker's hands.

    Ring lifetime is managed explicitly (the owner unlinks at close), and
    under the fork start method parent and workers share one tracker — an
    auto-registration surviving in a worker would either double-unlink the
    parent's segment or spray ``KeyError`` noise from the tracker process.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


class ShmRing:
    """A single-producer single-consumer byte ring in shared memory."""

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        self._ctrl = shm.buf.cast("Q")  # [head, tail, capacity, ...page pad]
        self.capacity = int(self._ctrl[2])
        self._data = shm.buf[_HEADER_BYTES:_HEADER_BYTES + self.capacity]
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, capacity: int = 1 << 20) -> "ShmRing":
        """Allocate a fresh ring (the creating side owns the segment)."""
        capacity = _aligned(max(capacity, 4096))
        shm = shared_memory.SharedMemory(create=True, size=_HEADER_BYTES + capacity)
        _tracker_forget(shm)
        ctrl = shm.buf.cast("Q")
        ctrl[0] = 0
        ctrl[1] = 0
        ctrl[2] = capacity
        ctrl.release()
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by name (non-owning side).

        The attaching process tells the resource tracker to forget the
        segment: the creator owns unlinking, and a worker exiting must not
        tear the ring down under the parent.
        """
        shm = shared_memory.SharedMemory(name=name)
        _tracker_forget(shm)
        return cls(shm, owner=False)

    # -- byte plumbing -----------------------------------------------------------
    def _copy_in(self, pos: int, view: memoryview) -> int:
        n = len(view)
        end = pos + n
        if end <= self.capacity:
            self._data[pos:end] = view
        else:
            split = self.capacity - pos
            self._data[pos:] = view[:split]
            self._data[: n - split] = view[split:]
        return (pos + n) % self.capacity

    def try_write(self, chunks) -> bool:
        """Append one record built from ``chunks`` (bytes-like, zero-copy
        where the chunk is already a contiguous buffer); False if it does
        not fit the free space."""
        views = []
        total = 0
        for chunk in chunks:
            view = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
            if view.format != "B":
                view = view.cast("B")
            views.append(view)
            total += len(view)
        record = 8 + _aligned(total)
        head = int(self._ctrl[0])
        tail = int(self._ctrl[1])
        if record > self.capacity - (tail - head):
            return False
        pos = tail % self.capacity
        # The aligned 8-byte length prefix never wraps (capacity ≡ 0 mod 8).
        self._data[pos:pos + 8] = total.to_bytes(8, "little")
        pos = (pos + 8) % self.capacity
        for view in views:
            pos = self._copy_in(pos, view)
        self._ctrl[1] = tail + record
        return True

    def try_read(self) -> bytes | None:
        """Pop the oldest record's payload, or None when the ring is empty."""
        head = int(self._ctrl[0])
        tail = int(self._ctrl[1])
        if head == tail:
            return None
        pos = head % self.capacity
        length = int.from_bytes(self._data[pos:pos + 8], "little")
        pos = (pos + 8) % self.capacity
        end = pos + length
        if end <= self.capacity:
            payload = bytes(self._data[pos:end])
        else:
            split = self.capacity - pos
            payload = bytes(self._data[pos:]) + bytes(self._data[:length - split])
        self._ctrl[0] = head + 8 + _aligned(length)
        return payload

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release the local mapping (owner additionally unlinks)."""
        if self._closed:
            return
        self._closed = True
        self._data.release()
        self._ctrl.release()
        self._shm.close()
        if self._owner:
            try:
                # unlink() un-registers as a side effect; re-register first
                # so the tracker's books stay balanced (see _tracker_forget).
                resource_tracker.register(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:
        return f"ShmRing({self.name}, {self.capacity} bytes)"


# -- batch (submit-side) codec ---------------------------------------------------
def _as_bytes(array: np.ndarray) -> memoryview:
    return memoryview(np.ascontiguousarray(array)).cast("B")


def encode_batch(ring: ShmRing, seq: int, jobs, now: float | None) -> bool:
    """Write one submit record: ``jobs`` is ``[(shard_id, keys), ...]``.

    Returns False (ring full / batch oversized) without side effects — the
    caller then ships the batch over the pipe instead.
    """
    header = np.zeros(4, dtype=np.uint64)
    header[0] = seq
    header[1] = len(jobs)
    header[2] = 1 if now is None else 0
    if now is not None:
        header.view(np.float64)[3] = now
    chunks = [_as_bytes(header)]
    for shard_id, keys in jobs:
        chunks.append(_as_bytes(np.array([shard_id, len(keys)], dtype=np.uint64)))
        chunks.append(_as_bytes(keys_to_matrix(keys)))
    return ring.try_write(chunks)


# Per-field (lo column, hi column or None) plan, derived once from
# COLUMN_SPLITS: >64-bit fields travel as a (hi, lo) column pair.
_FIELD_COLS: list[tuple[int, int | None]] = [(-1, None)] * len(FIELD_ORDER)
_hi_cols: dict[int, int] = {}
for _column, (_field, _shift) in enumerate(COLUMN_SPLITS):
    if _shift:
        _hi_cols[_field] = _column
    else:
        _FIELD_COLS[_field] = (_column, _hi_cols.get(_field))
del _hi_cols


def matrix_to_keys(matrix: np.ndarray) -> list[FlowKey]:
    """Rebuild :class:`FlowKey` objects from one uint64 column matrix.

    Decoded column-wise: each 64-bit field's value list IS its column
    (one C-level ``tolist``), and only the split >64-bit fields pay a
    python recombination loop — the decode cost is then dominated by the
    key construction itself, not the layout walk.
    """
    columns = matrix.T.tolist()  # python ints: exact 64-bit values
    per_field = [
        columns[lo]
        if hi is None
        else [low | (high << 64) for low, high in zip(columns[lo], columns[hi])]
        for lo, hi in _FIELD_COLS
    ]
    return [FlowKey.from_values(values) for values in zip(*per_field)]


def decode_batch(payload: bytes, expected_seq: int):
    """Parse one submit record; returns ``(jobs, now)`` with jobs as
    ``(shard_id, keys, rows)`` triples.

    ``rows`` is the wire column matrix itself: the layout is the scan
    kernels' native key format, so the receiving datapath feeds it
    straight into its batch scanner instead of re-deriving it from the
    rebuilt :class:`FlowKey` objects.

    Raises :class:`SwitchError` when the embedded sequence number does not
    match the doorbell's — a torn or re-ordered record must never be
    silently attributed to the wrong batch.
    """
    words = np.frombuffer(payload, dtype=np.uint64)
    seq = int(words[0])
    if seq != expected_seq:
        raise SwitchError(
            f"shm batch record out of sequence: doorbell {expected_seq}, "
            f"ring {seq} (torn or re-ordered record)"
        )
    n_jobs = int(words[1])
    now = None if int(words[2]) else float(words[3:4].view(np.float64)[0])
    offset = 4
    jobs = []
    for _ in range(n_jobs):
        shard_id = int(words[offset])
        n_keys = int(words[offset + 1])
        offset += 2
        matrix = words[offset:offset + n_keys * N_COLUMNS].reshape(n_keys, N_COLUMNS)
        offset += n_keys * N_COLUMNS
        jobs.append((shard_id, matrix_to_keys(matrix), matrix))
    return jobs, now


# -- verdict (complete-side) codec ------------------------------------------------
_KIND_LIST = list(ActionKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KIND_LIST)}
_PATH_LIST = list(PathTaken)
_PATH_CODE = {path: code for code, path in enumerate(_PATH_LIST)}

#: Interned actions: verdict decoding reuses one Action per (kind, port).
_ACTION_CACHE: dict[tuple[int, int], Action] = {}


def _action_of(kind_code: int, port: int) -> Action:
    cached = _ACTION_CACHE.get((kind_code, port))
    if cached is None:
        cached = Action(_KIND_LIST[kind_code], None if port < 0 else port)
        _ACTION_CACHE[(kind_code, port)] = cached
    return cached


def encode_verdicts(ring: ShmRing, seq: int, results) -> bool:
    """Write one complete record: ``results`` is ``[(sid, BatchVerdicts)]``.

    Everything per-packet travels as numeric arrays; only installed
    entries (slow-path upcalls — absent on a hot replay) ride in a pickled
    sparse residue.  Returns False when the record does not fit.
    """
    chunks = [_as_bytes(np.array([seq, len(results)], dtype=np.uint64))]
    residue = []
    for shard_id, batch in results:
        verdicts = batch.verdicts
        n = len(verdicts)
        has_costs = 1 if batch.probe_costs else 0
        chunks.append(
            _as_bytes(np.array([shard_id, n, has_costs, batch.upcalls], dtype=np.uint64))
        )
        table = np.empty((6, n), dtype=np.int64)
        table[0] = [_KIND_CODE[v.action.kind] for v in verdicts]
        table[1] = [
            -1 if v.action.out_port is None else v.action.out_port for v in verdicts
        ]
        table[2] = [_PATH_CODE[v.path] for v in verdicts]
        table[3] = [v.masks_inspected for v in verdicts]
        table[4] = [v.rules_examined for v in verdicts]
        table[5] = batch.mask_counts
        chunks.append(_as_bytes(table))
        if has_costs:
            chunks.append(_as_bytes(np.asarray(batch.probe_costs, dtype=np.float64)))
        residue.extend(
            (shard_id, i, v.installed)
            for i, v in enumerate(verdicts)
            if v.installed is not None
        )
    blob = pickle.dumps(residue, protocol=pickle.HIGHEST_PROTOCOL) if residue else b""
    chunks.append(_as_bytes(np.array([len(blob)], dtype=np.uint64)))
    if blob:
        chunks.append(blob)
    return ring.try_write(chunks)


def decode_verdicts(payload: bytes, expected_seq: int):
    """Parse one complete record back into ``[(sid, BatchVerdicts)]``."""
    words = np.frombuffer(payload, dtype=np.uint64, count=len(payload) // 8)
    seq = int(words[0])
    if seq != expected_seq:
        raise SwitchError(
            f"shm verdict record out of sequence: doorbell {expected_seq}, "
            f"ring {seq} (torn or re-ordered record)"
        )
    n_shards = int(words[1])
    offset = 2
    decoded: list[
        tuple[int, list[PacketVerdict], tuple[int, ...], tuple[float, ...], int]
    ] = []
    for _ in range(n_shards):
        shard_id = int(words[offset])
        n = int(words[offset + 1])
        has_costs = int(words[offset + 2])
        upcalls = int(words[offset + 3])
        offset += 4
        table = words[offset:offset + 6 * n].view(np.int64).reshape(6, n)
        offset += 6 * n
        costs: tuple[float, ...] = ()
        if has_costs:
            costs = tuple(words[offset:offset + n].view(np.float64).tolist())
            offset += n
        kinds, ports, paths, masks, rules = (table[i].tolist() for i in range(5))
        verdicts = [
            PacketVerdict(
                action=_action_of(kinds[i], ports[i]),
                path=_PATH_LIST[paths[i]],
                masks_inspected=masks[i],
                rules_examined=rules[i],
            )
            for i in range(n)
        ]
        decoded.append((shard_id, verdicts, tuple(table[5].tolist()), costs, upcalls))
    blob_len = int(words[offset])
    if blob_len:
        blob = payload[8 * (offset + 1): 8 * (offset + 1) + blob_len]
        by_shard = {shard_id: verdicts for shard_id, verdicts, _, _, _ in decoded}
        for shard_id, index, entry in pickle.loads(blob):
            verdicts = by_shard[shard_id]
            verdicts[index] = verdicts[index]._replace(installed=entry)
    return [
        (shard_id, BatchVerdicts(tuple(verdicts), mask_counts, costs, upcalls))
        for shard_id, verdicts, mask_counts, costs, upcalls in decoded
    ]
