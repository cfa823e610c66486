"""RSS dispatch: hashing flows onto PMD queues, and queue-aware crafting.

Multi-queue NICs spread incoming flows across PMD cores with Receive Side
Scaling: a hash of the 5-tuple picks the queue, so every packet of a flow
lands on the same core for its lifetime.  Two consequences matter for the
tuple-space-explosion attack (the multi-queue feasibility follow-up,
arXiv:2011.09107):

* each PMD core owns private caches, so a mask staircase detonates only in
  the shards whose queues received the crafting packets — RSS *dilutes* a
  naive attack across cores;
* the attacker controls its packets' 5-tuples, and the bits a crafted
  packet needs for its mask staircase rarely pin the whole 5-tuple — the
  leftover wildcarded bits can be ground until the RSS hash lands on a
  *chosen* queue, concentrating the explosion on one core (and the victims
  whose flows RSS assigned to it).

:class:`RssDispatcher` is the dispatch layer (hash pluggable, so deployments
with different hash functions — or an attacker's model of one — can be
simulated; re-keyable and re-mappable, so a defender can move flows);
:func:`retarget_trace` is the queue-aware crafting tool, which only ever
touches bits the generated megaflow wildcards, so the retargeted trace
provably detonates the same masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.classifier.flowtable import FlowTable
from repro.classifier.slowpath import OVS_DEFAULT, MegaflowGenerator, StrategyConfig
from repro.exceptions import SwitchError
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey

__all__ = [
    "RSS_FIELDS",
    "five_tuple_hash",
    "five_tuple_hash_columns",
    "uniform_key_hash",
    "RssDispatcher",
    "RetargetReport",
    "retarget_trace",
    "pin_to_queue",
]

# The classic RSS input set: the L3/L4 5-tuple.
RSS_FIELDS: tuple[str, ...] = ("ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst")
_RSS_INDICES: tuple[int, ...] = tuple(FIELD_ORDER.index(name) for name in RSS_FIELDS)

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

# The default RETA size (rounded to a multiple of the queue count).
_RETA_SLOTS = 128


def _salted_offset(salt: int) -> int:
    """The FNV state after folding ``salt``'s 4 bytes (the re-key prefix).

    Folding the salt *before* the field bytes is the cheap stand-in for
    swapping a NIC's 40-byte Toeplitz key: every downstream byte sees a
    different running state, so flows scatter onto entirely new queues.
    ``salt=0`` short-circuits to the plain offset basis everywhere, which
    is what keeps un-salted hashes (and every paper preset) byte-identical.
    """
    h = _FNV_OFFSET
    for shift in (0, 8, 16, 24):
        h ^= (salt >> shift) & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


def _fmix32(h: int) -> int:
    """Murmur3's 32-bit finalizer: diffuse high bits into low bits.

    Indispensable for the *salted* path, not decoration: an FNV-1a step is
    affine over GF(2) in its low k bits (``h' = p·(h ^ b) mod 2^k`` — both
    XOR and odd multiplication are linear there), so for the fixed-length
    5-tuple the salted low bits differ from the unsalted ones by a
    *constant* XOR.  Queue selection is ``h mod n_queues``: under a bare
    re-key an attacker's trace ground onto one queue would move *as a
    block* to one new queue — concentration preserved, the re-key
    defeated.  The shift-xor-multiply cascade mixes the well-diffused high
    bits down, making the low bits a genuine function of (key, salt).
    """
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def five_tuple_hash(key: FlowKey, salt: int = 0) -> int:
    """Deterministic 32-bit FNV-1a over the 5-tuple (a Toeplitz stand-in).

    Real NICs use a keyed Toeplitz hash; what the simulation needs from it
    is determinism (a flow's queue is stable for its lifetime) and bit
    sensitivity (flipping any 5-tuple bit can move the flow) — FNV-1a over
    the field bytes provides both without the 40-byte key machinery.

    ``salt`` models the re-keyable part of that machinery: a non-zero salt
    is folded into the FNV state before the field bytes (the simulation's
    analogue of programming a fresh Toeplitz key into the NIC) and the
    result is passed through :func:`_fmix32` — without that finalizer the
    low bits a queue index is taken from would shift by a salt-dependent
    *constant*, moving an attacker's whole ground trace to one new queue
    instead of scattering it.  ``salt=0`` (the default) is bit-for-bit
    the historical un-salted hash.
    """
    h = _salted_offset(salt) if salt else _FNV_OFFSET
    for index in _RSS_INDICES:
        value = key.at(index)
        for shift in (0, 8, 16, 24):
            h ^= (value >> shift) & 0xFF
            h = (h * _FNV_PRIME) & 0xFFFFFFFF
    if salt:
        h = _fmix32(h)
    return h


def five_tuple_hash_columns(columns, salt: int = 0):
    """Vectorised twin of :func:`five_tuple_hash` over 5-tuple columns.

    ``columns`` maps each of :data:`RSS_FIELDS` to an integer array; all
    arrays share one length and position ``i`` across them is one flow.
    Returns the uint64 array of 32-bit hashes, bit-identical to calling
    :func:`five_tuple_hash` per flow — including under a re-key salt,
    which enters as the same pre-folded FNV state (the salt is constant
    across the batch, so its prefix contributes one scalar fill value).
    The streaming tenant generators of :mod:`repro.netsim.fleet` place
    whole hosts' populations onto PMD queues in one pass with it
    (differential-tested in ``tests/test_fleet.py`` and, for the salted
    path, ``tests/test_rebalance.py``).
    """
    import numpy as np

    first = np.asarray(columns[RSS_FIELDS[0]], dtype=np.uint64)
    offset = _salted_offset(salt) if salt else _FNV_OFFSET
    h = np.full(first.shape, offset, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask32 = np.uint64(0xFFFFFFFF)
    byte = np.uint64(0xFF)
    for name in RSS_FIELDS:
        value = np.asarray(columns[name], dtype=np.uint64)
        for shift in (0, 8, 16, 24):
            h ^= (value >> np.uint64(shift)) & byte
            h = (h * prime) & mask32
    if salt:
        # The _fmix32 finalizer, vectorised (see the scalar twin for why
        # the salted path needs it).
        h ^= h >> np.uint64(16)
        h = (h * np.uint64(0x85EBCA6B)) & mask32
        h ^= h >> np.uint64(13)
        h = (h * np.uint64(0xC2B2AE35)) & mask32
        h ^= h >> np.uint64(16)
    return h


def uniform_key_hash(key: FlowKey, salt: int = 0) -> int:
    """A well-mixing hash over the *full* key (balanced-placement studies).

    The crafted keys of a TSE staircase differ in structured bit patterns
    that the byte-serial FNV walk keeps correlated, so the natural
    :func:`five_tuple_hash` placement of a detonation can be lopsided (one
    queue carrying ~half the masks).  Python's tuple hash mixes every
    field through a SipHash-derived round and spreads the same staircase
    near-uniformly.  Deterministic for integer tuples (``PYTHONHASHSEED``
    only perturbs str/bytes), stable per flow — a drop-in ``hash_fn`` for
    experiments and benchmarks that need the *even-spread* regime (e.g.
    measuring executor scaling without queue imbalance in the way) rather
    than a NIC-faithful one.

    A non-zero ``salt`` re-keys the placement by prepending the salt to
    the hashed tuple; ``salt=0`` is bit-for-bit the historical hash.
    """
    if salt:
        return hash((salt,) + key.values) & 0xFFFFFFFF
    return hash(key.values) & 0xFFFFFFFF


class RssDispatcher:
    """Maps flow keys onto ``n_queues`` PMD queues, re-keyably (DPDK RETA-style).

    The hash picks a slot of a queue-indirection table (RETA) and the slot
    names the queue.  Two independent levers move flows between queues
    without restarting the datapath, mirroring what real NICs expose:

    * **salt** — a 32-bit re-key folded into the hash (the stand-in for
      programming a fresh Toeplitz key); changing it scatters *every*
      flow onto a fresh pseudo-random queue;
    * **reta** — the indirection table itself: editing individual slots
      moves *fractions* of the flow population (e.g. shedding 1/128th of
      a hot queue's load), which a re-key cannot do.

    With ``salt=0`` and the default identity table (128 slots, rounded to
    a multiple of ``n_queues``; slot ``i`` names queue ``i % n_queues``),
    ``reta[h % slots] == h % n_queues`` for every hash: plain modulo RSS,
    which keeps every paper preset byte-identical.

    Dispatchers are immutable; :meth:`with_salt` / :meth:`with_reta`
    derive the successor a re-map installs.  Everything held is ints,
    tuples, or a module-level function, so instances cross the process
    executor's pickle boundary.

    Args:
        n_queues: number of receive queues (= PMD shards).
        hash_fn: pluggable hash ``(FlowKey[, salt]) -> int`` (defaults to
            :func:`five_tuple_hash`); substituting the deployment's real
            hash lets traces be crafted queue-aware against it.  The salt
            is passed only when set, so a salt-less function works as a
            plain ``FlowKey -> int``.
        salt: the re-key (0: the un-salted hash).
        reta: the indirection table (``None``: the identity table).
    """

    def __init__(
        self,
        n_queues: int,
        hash_fn: Callable[..., int] = five_tuple_hash,
        salt: int = 0,
        reta: Sequence[int] | None = None,
    ):
        if n_queues < 1:
            raise SwitchError(f"n_queues must be >= 1, got {n_queues}")
        if not 0 <= salt <= 0xFFFFFFFF:
            raise SwitchError(f"salt must be a 32-bit value, got {salt}")
        if reta is None:
            slots = n_queues * max(1, _RETA_SLOTS // n_queues)
            reta = tuple(i % n_queues for i in range(slots))
        else:
            reta = tuple(reta)
            if not reta:
                raise SwitchError("reta must have at least one slot")
            bad = [q for q in reta if not 0 <= q < n_queues]
            if bad:
                raise SwitchError(
                    f"reta entries out of range 0..{n_queues - 1}: {bad[:4]}"
                )
        self.n_queues = n_queues
        self.hash_fn = hash_fn
        self.salt = salt
        self.reta = reta

    def queue_of(self, key: FlowKey) -> int:
        """The queue ``key``'s flow lands on under the current (salt, reta)."""
        if self.n_queues == 1:
            return 0
        h = self.hash_fn(key, self.salt) if self.salt else self.hash_fn(key)
        return self.reta[h % len(self.reta)]

    def partition(self, keys: Iterable[FlowKey]) -> dict[int, list[int]]:
        """Indices of ``keys`` grouped by queue, preserving order per queue."""
        queue_of = self.queue_of
        buckets: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            buckets.setdefault(queue_of(key), []).append(index)
        return buckets

    def with_salt(self, salt: int) -> "RssDispatcher":
        """The successor dispatcher after a re-key (same RETA)."""
        return RssDispatcher(self.n_queues, self.hash_fn, salt=salt, reta=self.reta)

    def with_reta(self, reta: Sequence[int]) -> "RssDispatcher":
        """The successor dispatcher after a RETA rewrite (same salt)."""
        return RssDispatcher(self.n_queues, self.hash_fn, salt=self.salt, reta=reta)

    def __repr__(self) -> str:
        return (
            f"RssDispatcher(n_queues={self.n_queues}, salt={self.salt:#x}, "
            f"slots={len(self.reta)})"
        )


@dataclass(frozen=True)
class RetargetReport:
    """Outcome of one :func:`retarget_trace` pass.

    Attributes:
        retargeted: keys whose free bits were ground onto the target queue.
        already_on_target: keys RSS already mapped where the plan wanted.
        stuck: keys left untouched (no free 5-tuple bits, or the grind
            budget ran out) — these stay on their natural queue.
    """

    retargeted: int = 0
    already_on_target: int = 0
    stuck: int = 0


def retarget_trace(
    keys: Sequence[FlowKey],
    flow_table: FlowTable,
    dispatcher: RssDispatcher,
    queue_for: Callable[[int, FlowKey], int],
    strategy: StrategyConfig = OVS_DEFAULT,
) -> tuple[list[FlowKey], RetargetReport]:
    """Craft a queue-aware variant of an adversarial trace.

    For each key the megaflow the slow path would generate is computed
    first; only bits that megaflow *wildcards* (restricted to the 5-tuple
    fields RSS reads) are ground, and every candidate is verified to
    generate the identical ``(mask, masked key)`` — so the retargeted trace
    detonates exactly the same tuple space, packet for packet, while its
    RSS placement follows ``queue_for(index, key)``.  A key gets 128
    seeded random draws; one that finds no candidate stays as it is.

    Returns the new key list (same length/order) and a
    :class:`RetargetReport`.
    """
    generator = MegaflowGenerator(flow_table, strategy)
    rng = random.Random(0)
    out: list[FlowKey] = []
    report_retargeted = report_on_target = report_stuck = 0
    for index, key in enumerate(keys):
        target = queue_for(index, key) % dispatcher.n_queues
        if dispatcher.queue_of(key) == target:
            out.append(key)
            report_on_target += 1
            continue
        entry = generator.generate(key).entry
        free = [
            (field_index, FIELDS[name].full_mask & ~entry.mask.at(field_index))
            for name, field_index in zip(RSS_FIELDS, _RSS_INDICES)
        ]
        free = [(i, bits) for i, bits in free if bits]
        ground: FlowKey | None = None
        if free:
            values = list(key.values)
            for _ in range(128):
                for field_index, bits in free:
                    values[field_index] = (key.at(field_index) & ~bits) | (
                        rng.getrandbits(bits.bit_length()) & bits
                    )
                candidate = FlowKey.from_values(tuple(values))
                if dispatcher.queue_of(candidate) != target:
                    continue
                check = generator.generate(candidate).entry
                if check.mask == entry.mask and check.key == entry.key:
                    ground = candidate
                    break
        if ground is None:
            out.append(key)
            report_stuck += 1
        else:
            out.append(ground)
            report_retargeted += 1
    return out, RetargetReport(
        retargeted=report_retargeted,
        already_on_target=report_on_target,
        stuck=report_stuck,
    )


def pin_to_queue(
    key: FlowKey,
    dispatcher: RssDispatcher,
    queue: int,
    start: int | None = None,
) -> FlowKey:
    """Choose a source port so RSS pins ``key``'s flow to ``queue``.

    The legitimate-endpoint analogue of :func:`retarget_trace`: a victim
    (or experimenter) picking a source port so its flow lands on a chosen
    PMD core.  Scans up to 4096 ports upward from ``start`` (the key's
    current ``tp_src`` by default) and returns the first hit.
    """
    if not 0 <= queue < dispatcher.n_queues:
        raise SwitchError(f"queue {queue} out of range 0..{dispatcher.n_queues - 1}")
    base = key["tp_src"] if start is None else start
    for offset in range(4096):
        candidate = key.replace(tp_src=(base + offset) & 0xFFFF)
        if dispatcher.queue_of(candidate) == queue:
            return candidate
    raise SwitchError(f"could not pin tp_src onto queue {queue} within 4096 candidates")
