"""Scan-kernel layer: the batch scanner's gather-filter-confirm inner loop.

The TSS accelerator reduces a batch lookup to one dense computation: for a
chunk of keys and the current mask list, compute the salted compound hash
``(sum_c (row_c & mask_c) * w_c) ^ salt`` for every (key, mask) pair, test
each compound against the membership filter (a cache-resident bit array
whose layout this module alone knows — see "membership filter" below), and
report per key whether any mask produced a filter hit plus where the first
hit sits.  Everything semantic — dict confirmation, probe accounting, the
fallback walks — stays in ``tss.py``; this module owns only that numeric
plan, behind a small kernel interface so the implementation is selectable
like a backend.  The interface has two steps: ``prepare`` digests the mask
list (work linear in masks, done once per mask-list change and cached by
the store) and ``build_plan`` scans one chunk of keys against that digest —
a 5-packet burst pays for 5 scans, not for re-deriving what only the masks
determine.  Two implementations:

* :class:`NumpyScanKernel` — the portable reference: the exact vectorised
  numpy pass PR 1 introduced (dense compound matrix + one filter test).
* :class:`CffiScanKernel` — a compiled C inner loop (built on first use
  with cffi against the system toolchain, cached under ``_kernel_cache/``)
  that walks masks per key and **early-exits on the first filter hit**, so a
  warmed cache does O(first hit) work per key instead of O(masks).  The rare
  key whose first hit fails dict confirmation (filter false positive)
  resumes the C scan past the failed index via :meth:`ScanPlan.next_hit` —
  identical math, identical verdicts, never a dense matrix.

Selection: ``make_scan_kernel("auto")`` prefers the compiled kernel and
falls back to numpy when the toolchain/cffi is absent; setting
``REPRO_FORCE_NUMPY_KERNEL=1`` forces the numpy path (the no-compiler CI
leg).  Kernels are pure accelerators under the standing invariants: every
candidate they surface is confirmed against the per-mask dicts, so a kernel
can never change a verdict, only how fast the plan is computed.

Equivalence argument for the early-exit kernel (property-tested in
``tests/test_kernel.py``): both kernels evaluate the same compound hash
(addition is commutative mod 2**64, so column order does not matter) against
the same filter snapshot, hence they agree on the *first* filter hit per
key.  A confirmed first hit is the result for both.  On a failed confirm the
numpy path walks its dense candidate row; the cffi path recomputes that row
lazily.  The lazy row can only differ by filter bits set *after* the plan
was built (mid-batch installs) — and under Inv(2) at most one installed
entry covers any key, so either walk confirms exactly that entry at exactly
its mask index, or neither confirms and the scanner's mid-burst coherence
check returns the same entry at the same index.  That check is
kernel-independent — it never reads the filter or a plan row: it probes the
truth dicts for the one megaflow the slow path generates for the key,
``(mask, key & mask)``, which is complete on three premises (a plan miss
rules out every pre-snapshot entry, because the filter has no false
negatives and candidates are dict-confirmed; ``Datapath.process_batch`` is
the only mid-burst installer; generated entries that overlap are identical),
and a caller that cannot name that megaflow makes the scanner replan from
the current key instead (see ``tss._BatchScanner``).  ``masks_inspected`` is
index+1 either way.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.packet.fields import FIELD_ORDER, FIELDS

__all__ = [
    "COLUMN_SPLITS",
    "N_COLUMNS",
    "U64",
    "WEIGHTS",
    "to_columns",
    "to_column_matrix",
    "keys_to_matrix",
    "row_hash",
    "filter_alloc",
    "filter_set",
    "filter_test",
    "ScanPlan",
    "ScanOperands",
    "ScanKernel",
    "NumpyScanKernel",
    "CffiScanKernel",
    "register_scan_kernel",
    "scan_kernel_names",
    "resolve_scan_kernel_name",
    "make_scan_kernel",
    "cffi_kernel_available",
    "FORCE_NUMPY_ENV",
]

# -- column layout (the wire format shared by accelerator and shm transport) --
#
# One uint64 column per field, two for the 128-bit IPv6 addresses.  This
# layout is also the zero-copy wire format of the shared-memory transport:
# a batch of keys travels as its (N x N_COLUMNS) uint64 matrix.
COLUMN_SPLITS: list[tuple[int, int]] = []  # (field index, shift) per column
for _index, _name in enumerate(FIELD_ORDER):
    if FIELDS[_name].width > 64:
        COLUMN_SPLITS.append((_index, 64))
    COLUMN_SPLITS.append((_index, 0))
N_COLUMNS = len(COLUMN_SPLITS)
U64 = (1 << 64) - 1

_HASH_RNG = np.random.default_rng(0x7553_5345)  # deterministic accelerator weights
WEIGHTS = (
    _HASH_RNG.integers(1, 1 << 62, size=N_COLUMNS, dtype=np.uint64) * np.uint64(2)
    + np.uint64(1)
)

FORCE_NUMPY_ENV = "REPRO_FORCE_NUMPY_KERNEL"


def to_columns(values: tuple[int, ...]) -> np.ndarray:
    """Canonical value tuple -> uint64 column row."""
    row = np.empty(N_COLUMNS, dtype=np.uint64)
    for column, (index, shift) in enumerate(COLUMN_SPLITS):
        row[column] = (values[index] >> shift) & U64
    return row


def to_column_matrix(values_list: list[tuple[int, ...]]) -> np.ndarray:
    """Many canonical value tuples -> (N x columns) uint64 matrix."""
    rows = np.empty((len(values_list), N_COLUMNS), dtype=np.uint64)
    for column, (index, shift) in enumerate(COLUMN_SPLITS):
        if shift:
            rows[:, column] = [(v[index] >> shift) & U64 for v in values_list]
        else:
            rows[:, column] = [v[index] & U64 for v in values_list]
    return rows


# -- the packed row (owned here: nobody else reads or writes ``FlowKey._row``) --
#
# A key's row of the column matrix, as ``N_COLUMNS`` native uint64s (120
# bytes).  Attack traces, keepalives and every harness workload replay the
# *same* ``FlowKey`` objects burst after burst, and a key is immutable, so
# its row is packed the first time the key reaches a scan and kept on the
# key (``FlowKey._row``, ``None`` until then); a burst's matrix is then one
# ``bytes.join``.  Value tuples that are not keys — masks, installed
# entries — take :func:`to_columns` / :func:`to_column_matrix`.
_ROW_BYTES = 8 * N_COLUMNS


def keys_to_matrix(keys) -> np.ndarray:
    """``FlowKey``s -> their (N x columns) uint64 matrix, **read-only**.

    Bit for bit ``to_column_matrix([k.values for k in keys])``.  The result
    views the joined bytes, so nothing may write it (the cffi kernel copies
    the active columns out, the numpy kernel only reads).
    """
    try:
        packed = b"".join([key._row for key in keys])
    except TypeError:  # a None: some key has never been scanned
        fresh = [key for key in keys if key._row is None]
        rows = to_column_matrix([key.values for key in fresh]).tobytes()
        for n, key in enumerate(fresh):
            key._row = rows[n * _ROW_BYTES : (n + 1) * _ROW_BYTES]
        packed = b"".join([key._row for key in keys])
    return np.frombuffer(packed, dtype=np.uint64).reshape(-1, N_COLUMNS)


def row_hash(row: np.ndarray) -> int:
    """Salted modular hash of one column row."""
    return int((row * WEIGHTS).sum(dtype=np.uint64))


# -- membership filter (the one place its layout is known) ---------------------
#
# A bit array of ``2**log2`` slots in front of the exact entry-compound set.
# A compound's slot is its top ``log2`` bits, ``s = compound >> shift`` with
# ``shift = 64 - log2`` (the top bits of a multiplicative hash mix every input
# bit; the low bits do not, and IP-prefix attack traffic collides on them
# systematically); slot ``s`` lives at byte ``s >> 3``, bit ``s & 7``.  The
# three helpers here and the C probe in ``_SOURCE`` are the only code that
# knows this; the store (``tss.py``) owns the sizing policy and nothing else.
#
# Why bits: a scan probes the filter once per (key, mask) at a random slot,
# so what a probe costs is which cache level the array sits in, and a Bloom-
# style filter's false-positive rate depends on slots per entry, not on how
# wide a slot is stored.  A false candidate costs one exact ``tss_member``
# binary search (``searchsorted`` in the numpy kernel) over the sorted
# compound set — it never reaches Python — so the store keeps 256-1,024 slots
# per entry (~0.1-0.4 % false candidates per probe) and a detonated 8.7k-entry
# cache scans through a 512 KiB array that stays in L2 (the measured sweep
# sits next to the sizing constants in ``tss.py``).
def filter_alloc(log2: int) -> np.ndarray:
    """An empty filter of ``2**log2`` slots."""
    if not 3 <= log2 <= 32:
        raise ValueError(f"filter log2 {log2} outside 3..32")
    return np.zeros(1 << (log2 - 3), dtype=np.uint8)


def _slots(shift: int, compounds: np.ndarray) -> np.ndarray:
    # log2 <= 32, so a slot fits uint32: half the memory traffic of the
    # passes below on a (keys x masks) compound matrix.
    return (compounds >> np.uint64(shift)).astype(np.uint32)


def filter_set(bits: np.ndarray, shift: int, compounds: np.ndarray) -> None:
    """Set the slot of every uint64 in ``compounds`` (duplicates welcome)."""
    slots = _slots(shift, compounds)
    np.bitwise_or.at(
        bits, slots >> 3, np.left_shift(1, slots & 7).astype(np.uint8)
    )


def filter_test(bits: np.ndarray, shift: int, compounds: np.ndarray) -> np.ndarray:
    """Bool array, ``compounds``' shape: is each one's slot set?  No false
    negatives for anything :func:`filter_set` was given at this ``shift``."""
    slots = _slots(shift, compounds)
    found = bits[slots >> 3]
    found >>= (slots & 7).astype(np.uint8)
    found &= 1
    return found.view(bool)


# -- the plan a kernel produces ------------------------------------------------
class ScanPlan:
    """Per-chunk filter-candidate plan: first hit per key + a resume walk.

    ``has[j]``/``first[j]``/``first_compound[j]`` describe key ``j``'s first
    filter hit (the common case: one dict confirm and done).  When that
    confirm fails (filter false positive), :meth:`next_hit` resumes the scan
    for that one key past the failed index — from the dense candidate matrix
    (numpy kernel) or by re-entering the C scanner with a start offset (cffi
    kernel, which never materialised the dense matrices).
    """

    has: list[bool]
    first: list[int]
    first_compound: list[int]

    def next_hit(self, j: int, after: int) -> tuple[int, int] | None:
        """The next (mask index, compound) filter hit for key ``j`` past
        index ``after``, or ``None`` when no mask remains a candidate."""
        raise NotImplementedError


class DenseScanPlan(ScanPlan):
    """Numpy plan: the full (keys x masks) compound/candidate matrices."""

    __slots__ = ("has", "first", "first_compound", "_compounds", "_cand")

    def __init__(self, has, first, first_compound, compounds, cand):
        self.has = has
        self.first = first
        self.first_compound = first_compound
        self._compounds = compounds
        self._cand = cand

    def next_hit(self, j, after):
        tail = self._cand[j, after + 1:]
        if not tail.any():
            return None
        index = after + 1 + int(tail.argmax())
        return index, int(self._compounds[j, index])


class ScanOperands:
    """The scan's mask-side operands, in one kernel's layout (immutable).

    Everything a plan needs that depends only on the mask list: which
    columns any mask constrains (``active``), the mask matrix compacted to
    those columns, the matching hash weights and the per-mask salts.  Built
    by :meth:`ScanKernel.prepare` and reused by every
    :meth:`ScanKernel.build_plan` until the mask list changes.  The owner
    then drops its reference and prepares a fresh one — an instance is
    never written after construction, so pointers a live plan holds into
    it stay valid for as long as the plan pins it.
    """

    __slots__ = ("active", "masks", "weights", "salts", "pointers")

    def __init__(self, active, masks, weights, salts, pointers=None):
        self.active = active      # indices of the contributing columns
        self.masks = masks        # compacted mask matrix (kernel's layout)
        self.weights = weights    # WEIGHTS[active]
        self.salts = salts        # (n_masks,) uint64
        self.pointers = pointers  # cffi: (masks, weights, salts) cast once

    def equals(self, other: "ScanOperands") -> bool:
        """Same operands, value for value (the cache-coherence check)."""
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("active", "masks", "weights", "salts")
        )


class ScanKernel:
    """Interface every scan kernel implements (registered like a backend).

    Two steps, split by what their inputs depend on.  :meth:`prepare`
    digests the mask list — ``masks`` is the (n_masks x N_COLUMNS) uint64
    mask matrix in scan order, ``salts`` the (n_masks,) per-mask salts —
    into a :class:`ScanOperands` snapshot; its cost is linear in masks and
    is paid once per mask-list change, not once per burst.
    :meth:`build_plan` scans one chunk of keys against a snapshot plus the
    per-plan state: the membership filter and the sorted compound set move
    with every insert, so they are passed fresh.
    """

    name = "abstract"

    def prepare(self, masks: np.ndarray, salts: np.ndarray) -> ScanOperands:
        raise NotImplementedError

    def build_plan(
        self,
        rows: np.ndarray,        # (n_keys x N_COLUMNS) uint64 key matrix
        operands: ScanOperands,  # this kernel's prepare(masks, salts)
        filter_bits: np.ndarray,  # filter_alloc(log2) membership filter
        filter_shift: int,       # 64 - log2: filter_test's ``shift``
        compounds: np.ndarray,   # sorted uint64 entry-compound set (exact)
    ) -> ScanPlan:
        raise NotImplementedError


def _active_columns(masks: np.ndarray) -> np.ndarray:
    """Columns some mask constrains.  Most are fully wildcarded across the
    whole tuple space; their AND/MUL terms are identically zero, so both
    kernels skip them (uint64 addition is commutative: the compound is
    bit-identical)."""
    return np.flatnonzero(masks.any(axis=0))


class NumpyScanKernel(ScanKernel):
    """The portable reference kernel: dense vectorised numpy pass."""

    name = "numpy"

    def prepare(self, masks, salts):
        active = _active_columns(masks)
        # Column-major, so each broadcast operand below is one contiguous row.
        return ScanOperands(
            active,
            np.ascontiguousarray(masks[:, active].T),
            WEIGHTS[active],
            salts.copy(),
        )

    def build_plan(self, rows, operands, filter_bits, filter_shift, compounds):
        n_keys = len(rows)
        shape = (n_keys, len(operands.salts))
        columns = operands.active.tolist()
        mask_columns, weights = operands.masks, operands.weights
        if not columns:
            acc = np.zeros(shape, dtype=np.uint64)
        else:
            acc = np.bitwise_and(rows[:, columns[0], None], mask_columns[0][None, :])
            acc *= weights[0]
            if len(columns) > 1:
                scratch = np.empty(shape, dtype=np.uint64)
                for k in range(1, len(columns)):
                    np.bitwise_and(
                        rows[:, columns[k], None],
                        mask_columns[k][None, :],
                        out=scratch,
                    )
                    scratch *= weights[k]
                    acc += scratch
        acc ^= operands.salts[None, :]
        cand = filter_test(filter_bits, filter_shift, acc)
        # Refine the filter candidates with exact membership in the
        # sorted entry-compound set — the filter's false positives are what
        # force fallback walks, and the sparse hit set makes the exact
        # check nearly free.  (64-bit compound collisions remain possible;
        # the caller's dict confirm stays authoritative.)
        hit_rows, hit_cols = np.nonzero(cand)
        if hit_rows.size:
            if len(compounds):
                values = acc[hit_rows, hit_cols]
                positions = np.searchsorted(compounds, values)
                in_bounds = positions < len(compounds)
                member = np.zeros(values.shape, dtype=bool)
                member[in_bounds] = compounds[positions[in_bounds]] == values[in_bounds]
                cand[hit_rows, hit_cols] = member
            else:
                cand[hit_rows, hit_cols] = False
        has = cand.any(axis=1)
        first = np.where(has, cand.argmax(axis=1), 0)
        first_compound = acc[np.arange(n_keys), first]
        return DenseScanPlan(
            has.tolist(), first.tolist(), first_compound.tolist(), acc, cand
        )


# -- compiled kernel -----------------------------------------------------------
_CDEF = """
void tss_scan_first(const uint64_t *rows, const uint64_t *masks,
                    const uint64_t *weights, const uint64_t *salts,
                    const uint8_t *filt, uint64_t shift,
                    const uint64_t *comps, int64_t n_comps,
                    int64_t n_keys, int64_t n_masks, int64_t n_cols,
                    int64_t *first, uint64_t *first_compound);
int64_t tss_scan_hits(const uint64_t *row, const uint64_t *masks,
                      const uint64_t *weights, const uint64_t *salts,
                      const uint8_t *filt, uint64_t shift,
                      const uint64_t *comps, int64_t n_comps,
                      int64_t n_masks, int64_t n_cols, int64_t max_hits,
                      int64_t *indices, uint64_t *compounds);
"""

_SOURCE = """
#include <stdint.h>

/* The scan is processed in strips of STRIP masks: the compound hashes of a
 * whole strip are computed first (sequential, ALU-bound, prefetch-friendly),
 * then the membership filter is probed for each — the probes are random
 * accesses, and issuing them as independent loads lets the out-of-order
 * core overlap them instead of paying one full latency per mask.
 * (Detonated warm replay, us/key: STRIP 16 12.4-13.1, 64 12.1-12.6, 256
 * 11.0-12.0 -- not worth a 2 KiB stack array per key.) */
#define STRIP 64

#if defined(__GNUC__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

/* The strip hash, defined once.  Always inlined so that a call with a
 * literal n_cols has a constant-trip column loop the compiler unrolls;
 * `restrict` on the output tells it a store to accs cannot change row or
 * weights, so they stay in registers across the strip. */
ALWAYS_INLINE void
strip_hash_cols(const uint64_t *row, const uint64_t *mask,
                const uint64_t *weights, const uint64_t *salts,
                int64_t n_cols, int64_t lim, uint64_t *restrict accs)
{
    for (int64_t i = 0; i < lim; i++, mask += n_cols) {
        uint64_t acc = 0;
        for (int64_t c = 0; c < n_cols; c++)
            acc += (row[c] & mask[c]) * weights[c];
        accs[i] = acc ^ salts[i];
    }
}

/* accs[i] = compound of `row` under mask i of a strip of `lim` masks.
 * Real mask lists constrain 1-4 columns (SipSpDp: 4); anything wider (IPv6
 * address pairs, 5+ fields) takes the runtime loop. */
static void strip_hash(const uint64_t *row, const uint64_t *mask,
                       const uint64_t *weights, const uint64_t *salts,
                       int64_t n_cols, int64_t lim, uint64_t *restrict accs)
{
    switch (n_cols) {
    case 1: strip_hash_cols(row, mask, weights, salts, 1, lim, accs); break;
    case 2: strip_hash_cols(row, mask, weights, salts, 2, lim, accs); break;
    case 3: strip_hash_cols(row, mask, weights, salts, 3, lim, accs); break;
    case 4: strip_hash_cols(row, mask, weights, salts, 4, lim, accs); break;
    default: strip_hash_cols(row, mask, weights, salts, n_cols, lim, accs);
    }
}

/* The membership filter is a bit array: slot s = compound >> shift lives at
 * byte s >> 3, bit s & 7 (the layout kernel.py's filter_* helpers write). */
static inline int filter_has(const uint8_t *filt, uint64_t shift,
                             uint64_t compound)
{
    uint64_t slot = compound >> shift;
    return (filt[slot >> 3] >> (slot & 7)) & 1;
}

/* Exact membership of one compound in the sorted entry-compound set.  The
 * filter in front keeps this off the common (miss) path; the binary search
 * then rejects every filter false positive, so the python caller's
 * fallback walk (a full rescan) stays rare. */
static int tss_member(const uint64_t *comps, int64_t n, uint64_t value)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (comps[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < n && comps[lo] == value;
}

/* Per key: scan masks in order and early-exit on the first confirmed filter
 * hit.  The python caller confirms that hit against the authoritative
 * dicts; masks past the first hit are only needed on a (rare) failed
 * confirm, and are collected by tss_scan_hits on that path. */
void tss_scan_first(const uint64_t *rows, const uint64_t *masks,
                    const uint64_t *weights, const uint64_t *salts,
                    const uint8_t *filt, uint64_t shift,
                    const uint64_t *comps, int64_t n_comps,
                    int64_t n_keys, int64_t n_masks, int64_t n_cols,
                    int64_t *first, uint64_t *first_compound)
{
    for (int64_t k = 0; k < n_keys; k++) {
        const uint64_t *row = rows + k * n_cols;
        int64_t hit = -1;
        uint64_t hit_acc = 0;
        uint64_t accs[STRIP];
        for (int64_t base = 0; base < n_masks && hit < 0; base += STRIP) {
            int64_t lim = n_masks - base;
            if (lim > STRIP)
                lim = STRIP;
            strip_hash(row, masks + base * n_cols, weights, salts + base,
                       n_cols, lim, accs);
            for (int64_t i = 0; i < lim; i++) {
                if (filter_has(filt, shift, accs[i]) &&
                    tss_member(comps, n_comps, accs[i])) {
                    hit = base + i;
                    hit_acc = accs[i];
                    break;
                }
            }
        }
        first[k] = hit;
        first_compound[k] = hit_acc;
    }
}

/* The fallback walk for ONE key: collect membership-confirmed filter hits
 * in mask order (up to max_hits), so a failed dict confirm costs one C
 * call, not one per remaining candidate.  Returns the hit count. */
int64_t tss_scan_hits(const uint64_t *row, const uint64_t *masks,
                      const uint64_t *weights, const uint64_t *salts,
                      const uint8_t *filt, uint64_t shift,
                      const uint64_t *comps, int64_t n_comps,
                      int64_t n_masks, int64_t n_cols, int64_t max_hits,
                      int64_t *indices, uint64_t *compounds)
{
    int64_t count = 0;
    uint64_t accs[STRIP];
    for (int64_t base = 0; base < n_masks && count < max_hits; base += STRIP) {
        int64_t lim = n_masks - base;
        if (lim > STRIP)
            lim = STRIP;
        strip_hash(row, masks + base * n_cols, weights, salts + base,
                   n_cols, lim, accs);
        for (int64_t i = 0; i < lim && count < max_hits; i++) {
            if (filter_has(filt, shift, accs[i]) &&
                tss_member(comps, n_comps, accs[i])) {
                indices[count] = base + i;
                compounds[count] = accs[i];
                count++;
            }
        }
    }
    return count;
}
"""

# No auto-vectorisation: baseline x86-64 SIMD has no 64-bit multiply, and
# gcc -O3 vectorises the unrolled column loop regardless, emulating each
# product with three ``pmuludq`` — 17-22 us/key on the detonated warm replay
# where the scalar loop (one ``imul`` per column) runs 12.7.
_COMPILE_ARGS = ["-O3", "-fno-tree-vectorize"]

#: Compile outcome memo: None = not tried, ("ok", lib) | ("error", message).
_CFFI_STATE: tuple[str, object] | None = None


def _kernel_cache_dir() -> Path:
    return Path(__file__).resolve().parent / "_kernel_cache"


def _load_cffi_lib():
    """Compile (or reuse) the C kernel; returns the (ffi, lib) pair.

    The built extension is cached next to this module under
    ``_kernel_cache/`` keyed by a hash of the C source and its compile
    flags, so repeated runs — and forked worker processes — reuse one
    compile.  Concurrent compiles are race-safe: each builds in a private
    tmpdir and ``os.replace``s the artifact into place.  A successful build then unlinks the artifacts of
    superseded sources (other digests) — every edit to the C would
    otherwise leave a dead ``.so`` behind for good; a process that still
    has one loaded keeps its mapping.
    """
    import cffi  # deferred: absence means fallback, not import failure

    digest = hashlib.sha256(
        (_CDEF + _SOURCE + " ".join(_COMPILE_ARGS)).encode()
    ).hexdigest()[:12]
    modname = f"_tss_scan_{digest}"
    cache = _kernel_cache_dir()

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)

    from importlib.machinery import EXTENSION_SUFFIXES

    existing = None
    for suffix in EXTENSION_SUFFIXES:
        candidate = cache / f"{modname}{suffix}"
        if candidate.exists():
            existing = candidate
            break
    if existing is None:
        ffi.set_source(modname, _SOURCE, extra_compile_args=_COMPILE_ARGS)
        cache.mkdir(exist_ok=True)
        tmpdir = Path(
            tempfile.mkdtemp(prefix=f".build-{os.getpid()}-", dir=cache)
        )
        try:
            built = Path(ffi.compile(tmpdir=str(tmpdir)))
            existing = cache / built.name
            os.replace(built, existing)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        for sibling in cache.glob("_tss_scan_*"):
            if not sibling.name.startswith(f"{modname}."):
                sibling.unlink(missing_ok=True)

    import importlib.util

    spec = importlib.util.spec_from_file_location(modname, existing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


class CffiScanPlan(ScanPlan):
    """Compiled plan: first hits only; :meth:`next_hit` re-enters the C
    scanner once per falling-back key to collect the remaining candidates
    (no dense matrices ever built)."""

    MAX_HITS = 16  # per fetch; a truncated fetch resumes past its last hit

    __slots__ = (
        "has", "first", "first_compound",
        "_lib", "_ffi", "_n_masks", "_n_cols", "_n_comps", "_shift",
        "_fallback", "_pinned",
        "_p_rows", "_p_masks", "_p_weights", "_p_salts", "_p_filter",
        "_p_comps", "_hit_buffers",
    )

    def __init__(self, has, first, first_compound, lib, ffi, operands,
                 arrays, pointers, shift):
        self.has = has
        self.first = first
        self.first_compound = first_compound
        self._lib = lib
        self._ffi = ffi
        self._n_masks = len(operands.salts)
        self._n_cols = len(operands.active)
        self._n_comps = len(arrays[2])  # arrays: rows, filter, compounds
        self._shift = shift
        self._fallback: dict[int, tuple[list[tuple[int, int]], bool]] = {}
        # The arrays behind every pointer are pinned on the plan so the
        # addresses stay alive as long as the plan does (the operands
        # snapshot is immutable, so outliving the store's reference is safe).
        self._pinned = (operands, arrays)
        self._p_rows, self._p_filter, self._p_comps = pointers
        self._p_masks, self._p_weights, self._p_salts = operands.pointers
        self._hit_buffers = None  # allocated by the first fall-back fetch

    def _fetch(self, j: int, start: int) -> tuple[list[tuple[int, int]], bool]:
        """The (index, compound) filter hits for key ``j`` from mask
        ``start`` on (one C call), plus whether the fetch was truncated."""
        if start >= self._n_masks:
            return [], False
        if self._hit_buffers is None:
            indices = np.empty(self.MAX_HITS, dtype=np.int64)
            compounds = np.empty(self.MAX_HITS, dtype=np.uint64)
            self._hit_buffers = (
                indices,
                compounds,
                self._ffi.cast("int64_t *", indices.ctypes.data),
                self._ffi.cast("uint64_t *", compounds.ctypes.data),
            )
        indices, compounds, p_indices, p_compounds = self._hit_buffers
        count = self._lib.tss_scan_hits(
            self._p_rows + j * self._n_cols,
            self._p_masks + start * self._n_cols,
            self._p_weights,
            self._p_salts + start,
            self._p_filter,
            self._shift,
            self._p_comps,
            self._n_comps,
            self._n_masks - start,
            self._n_cols,
            self.MAX_HITS,
            p_indices,
            p_compounds,
        )
        hits = [
            (start + int(indices[i]), int(compounds[i])) for i in range(count)
        ]
        return hits, count == self.MAX_HITS

    def next_hit(self, j, after):
        cached = self._fallback.get(j)
        if cached is None:
            cached = self._fetch(j, after + 1)
            self._fallback[j] = cached
        while True:
            hits, truncated = cached
            for index, compound in hits:
                if index > after:
                    return index, compound
            if not truncated:
                return None
            cached = self._fetch(j, hits[-1][0] + 1)
            self._fallback[j] = cached


class CffiScanKernel(ScanKernel):
    """Early-exit compiled C kernel (cffi API mode, GIL released in C)."""

    name = "cffi"

    def __init__(self):
        self._ffi, self._lib = _cffi_runtime()

    def prepare(self, masks, salts):
        active = _active_columns(masks)
        # Fancy indexing copies: the compacted matrix never aliases the
        # store's (in-place appended) mask buffer.
        masks_c = np.ascontiguousarray(masks[:, active])
        weights_c = np.ascontiguousarray(WEIGHTS[active])
        salts_c = salts.copy()
        cast = self._ffi.cast
        return ScanOperands(
            active, masks_c, weights_c, salts_c,
            pointers=(
                cast("const uint64_t *", masks_c.ctypes.data),
                cast("const uint64_t *", weights_c.ctypes.data),
                cast("const uint64_t *", salts_c.ctypes.data),
            ),
        )

    def build_plan(self, rows, operands, filter_bits, filter_shift, compounds):
        n_keys = len(rows)
        rows_c = np.ascontiguousarray(rows[:, operands.active])
        filt_c = np.ascontiguousarray(filter_bits)
        comps_c = np.ascontiguousarray(compounds, dtype=np.uint64)
        first = np.empty(n_keys, dtype=np.int64)
        first_compound = np.zeros(n_keys, dtype=np.uint64)
        ffi = self._ffi
        p_masks, p_weights, p_salts = operands.pointers
        p_rows = ffi.cast("const uint64_t *", rows_c.ctypes.data)
        p_filter = ffi.cast("const uint8_t *", filt_c.ctypes.data)
        p_comps = ffi.cast("const uint64_t *", comps_c.ctypes.data)
        self._lib.tss_scan_first(
            p_rows,
            p_masks,
            p_weights,
            p_salts,
            p_filter,
            filter_shift,
            p_comps,
            len(comps_c),
            n_keys,
            len(operands.salts),
            len(operands.active),
            ffi.cast("int64_t *", first.ctypes.data),
            ffi.cast("uint64_t *", first_compound.ctypes.data),
        )
        has = first >= 0
        return CffiScanPlan(
            has.tolist(),
            np.where(has, first, 0).tolist(),
            first_compound.tolist(),
            self._lib, ffi, operands,
            (rows_c, filt_c, comps_c), (p_rows, p_filter, p_comps), filter_shift,
        )


def _cffi_runtime():
    """The process-wide compiled kernel, or raise why it is unavailable."""
    global _CFFI_STATE
    if _CFFI_STATE is None:
        try:
            _CFFI_STATE = ("ok", _load_cffi_lib())
        except Exception as exc:  # toolchain/cffi absent: remember why
            _CFFI_STATE = ("error", f"{type(exc).__name__}: {exc}")
    kind, payload = _CFFI_STATE
    if kind != "ok":
        raise RuntimeError(f"cffi scan kernel unavailable ({payload})")
    return payload


def _numpy_forced() -> bool:
    return os.environ.get(FORCE_NUMPY_ENV, "") == "1"


def cffi_kernel_available() -> bool:
    """True when the compiled kernel can be built/loaded and is not forced off."""
    if _numpy_forced():
        return False
    try:
        _cffi_runtime()
    except RuntimeError:
        return False
    return True


# -- registry ------------------------------------------------------------------
_SCAN_KERNELS: dict[str, Callable[[], ScanKernel]] = {}
_NUMPY_SINGLETON = NumpyScanKernel()


def register_scan_kernel(name: str, factory: Callable[[], ScanKernel]) -> None:
    _SCAN_KERNELS[name] = factory


def scan_kernel_names() -> tuple[str, ...]:
    return ("auto", *sorted(_SCAN_KERNELS))


def resolve_scan_kernel_name(name: str = "auto") -> str:
    """What ``make_scan_kernel(name)`` would actually build right now."""
    if name == "auto":
        return "cffi" if cffi_kernel_available() else "numpy"
    if name not in _SCAN_KERNELS:
        raise KeyError(
            f"unknown scan kernel {name!r}; known: {', '.join(scan_kernel_names())}"
        )
    return name


def make_scan_kernel(name: str = "auto") -> ScanKernel:
    """Build a scan kernel; ``"auto"`` prefers compiled, falls back to numpy.

    ``REPRO_FORCE_NUMPY_KERNEL=1`` pins ``"auto"`` to numpy (and makes an
    explicit ``"cffi"`` request fail loudly rather than silently comply).
    """
    resolved = resolve_scan_kernel_name(name)
    if resolved == "cffi" and _numpy_forced():
        raise RuntimeError(
            f"scan kernel 'cffi' requested but {FORCE_NUMPY_ENV}=1 forces numpy"
        )
    return _SCAN_KERNELS[resolved]()


register_scan_kernel("numpy", lambda: _NUMPY_SINGLETON)
register_scan_kernel("cffi", CffiScanKernel)
