"""Scan-kernel layer: the batch scanner's exact scan.

The TSS accelerator reduces a batch lookup to one dense computation: for a
chunk of keys and the current mask list, compute the salted compound hash
``(sum_c (row_c & mask_c) * w_c) ^ salt`` for every (key, mask) pair, test
each compound against the membership filter (a cache-resident bit array
whose layout this module alone knows — see "membership filter" below), and
settle every filter hit *exactly*: look for the indexed entry that sits
under that mask and whose packed row equals the key's masked row.  The plan
reports, per key, the first mask with such an entry and the entry's
**slot** — its position in the store's append-only entry table — so the
caller maps a hit to its entry with one list index.  Everything semantic —
the memo, statistics, mid-burst coherence — stays in ``tss.py``; this
module owns only that numeric plan, behind a two-step interface.
``prepare`` digests the mask list (work linear in masks, cached by the
store; ``extend`` grows a digest by appended masks that constrain no new
column) and ``build_plan`` scans one chunk of keys against that digest — a
5-packet burst pays for 5 scans, not for re-deriving what only the masks
determine.  Two implementations:

* :class:`NumpyScanKernel` — the portable reference: a dense vectorised
  numpy pass (compound matrix, one filter test, the exact match on the
  sparse filter hits).
* :class:`CffiScanKernel` — a compiled C inner loop (built on first use
  with cffi against the system toolchain, cached under ``_kernel_cache/``)
  that walks masks per key and **early-exits on the first exact match**, so
  a warmed cache does O(first hit) work per key instead of O(masks).  It
  computes the same compound by table reads: a column takes few distinct
  values across a mask list, so a key's ``(row_c & value) * w_c`` products
  are tabulated once per key over each column's dictionary of mask values,
  and a mask's compound is the sum of its columns' entries (the encoding
  lives in :class:`ScanOperands`; the C comment at ``strip_hash`` has the
  details).

Selection: ``make_scan_kernel("auto")`` prefers the compiled kernel and
falls back to numpy when the toolchain/cffi is absent; setting
``REPRO_FORCE_NUMPY_KERNEL=1`` forces the numpy path (the no-compiler CI
leg).

Why a plan hit is exact (property-tested in ``tests/test_kernel.py``): a
hit is decided by row equality, never by a hash.  An indexed entry is the
answer for a key at mask ``m`` only when the entry sits under ``m`` and its
packed row equals ``row & mask_m``.  Slot rows are stored masked, and a
column no mask constrains is zero in every mask and every masked row, so
comparing the active columns compares the whole row.  The packed row is an
injective image of the field values (one column per field, two for a
128-bit address), so equal rows are equal masked keys — the very test the
per-mask dicts apply.  Compound and filter only choose *where* to compare:
the filter has no false negatives, an entry's compound is a function of its
masked row and its mask, so the entry that matches is always among the
indexed compounds equal to the key's; a filter false positive or a 64-bit
compound collision compares unequal and the scan moves on.  Both kernels
evaluate the same compound against the same filter and entry table, and
so return the same first mask and slot for every key: the C kernel's
table reads add up the very products the numpy kernel multiplies out, and
addition is commutative mod 2**64, so neither term order nor tabulation
changes a bit.  Under Inv(2) at most one entry covers a key, so the first
exact match is the only one, and ``masks_inspected`` is its mask index + 1.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import ClassifierError
from repro.packet.fields import FIELD_ORDER, FIELDS

__all__ = [
    "COLUMN_SPLITS",
    "N_COLUMNS",
    "U64",
    "WEIGHTS",
    "to_column_matrix",
    "keys_to_matrix",
    "filter_alloc",
    "filter_set",
    "filter_test",
    "ScanOperands",
    "ScanKernel",
    "NumpyScanKernel",
    "CffiScanKernel",
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
ALL_FIELDS = range(len(FIELD_ORDER))
# Per field index, its (column, shift) pairs: one, or two for a 128-bit field.
_FIELD_COLUMNS = tuple(
    tuple((column, shift) for column, (index, shift) in enumerate(COLUMN_SPLITS) if index == field)
    for field in ALL_FIELDS
)

_HASH_RNG = np.random.default_rng(0x7553_5345)  # deterministic accelerator weights
WEIGHTS = (
    _HASH_RNG.integers(1, 1 << 62, size=N_COLUMNS, dtype=np.uint64) * np.uint64(2)
    + np.uint64(1)
)

FORCE_NUMPY_ENV = "REPRO_FORCE_NUMPY_KERNEL"


def to_column_matrix(values_list: list[tuple[int, ...]], fields=ALL_FIELDS) -> np.ndarray:
    """Many canonical value tuples -> (N x columns) uint64 matrix.

    Only the columns of ``fields`` (field indices) are converted; every other
    column is zero.  A caller that will AND the rows with masks constraining
    nothing outside ``fields`` gets the full conversion's result for the
    columns' cost alone.
    """
    rows = np.zeros((len(values_list), N_COLUMNS), dtype=np.uint64)
    for index in fields:
        for column, shift in _FIELD_COLUMNS[index]:
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
# entries — take :func:`to_column_matrix`, restricted to the fields their
# masks constrain.
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
# wide a slot is stored.  A false candidate costs one binary search over the
# sorted compound set (``searchsorted`` in the numpy kernel) and finds no
# equal row there — it never reaches Python — so the store keeps 256-1,024 slots
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


# -- what a plan reads ---------------------------------------------------------
class ScanOperands:
    """The scan's mask-side operands, in one kernel's layout (immutable).

    Everything a plan needs that depends only on the mask list: which
    columns any mask constrains (``active``), the mask matrix compacted to
    those columns, the matching hash weights and the per-mask salts.  Built
    by :meth:`ScanKernel.prepare` and reused by every
    :meth:`ScanKernel.build_plan` until the mask list changes.  The owner
    then replaces it — with :meth:`ScanKernel.extend` of it when masks were
    appended, else with a fresh ``prepare`` — and an instance is never
    written after construction, so the C views it holds stay valid for as
    long as it lives.

    The cffi layout also carries the masks *encoded* for the tabulated
    hash, as *terms*: one (column, value) pair per distinct value a column
    takes across the masks, in ``terms`` = (an (n_terms x 3) uint64 matrix
    of (position in ``active``, value, weight) rows, the base terms' int64
    indices).  A ``uniform``
    column holds one value in every mask, and its term is in the base,
    which the hash adds once per key.  A ``varying`` column's masks name
    their value's term in ``codes``, an (n_masks x n_varying) uint32
    matrix.  Both are tuples of (position, ``{value: term}``).  Terms and
    codes are append-only — ``extend`` never renumbers a term — and a
    dictionary is copied before it grows, because the snapshot it came
    from shares it.
    """

    __slots__ = (
        "active", "masks", "weights", "salts", "uniform", "varying", "codes", "terms", "pointers",
    )

    def __init__(self, active, masks, weights, salts, uniform=None, varying=None,
                 codes=None, terms=None, pointers=None):
        self.active = active      # int64 indices of the contributing columns
        self.masks = masks        # compacted mask matrix (kernel's layout)
        self.weights = weights    # WEIGHTS[active]
        self.salts = salts        # (n_masks,) uint64
        self.uniform = uniform    # cffi: ((position, {value: term}), ...)
        self.varying = varying    # cffi: ((position, {value: term}), ...)
        self.codes = codes        # cffi: (n_masks x len(varying)) uint32 terms
        self.terms = terms        # cffi: ((n_terms x 3) uint64, base terms)
        self.pointers = pointers  # cffi: the C mask side and the views it reads

    def decoded(self) -> np.ndarray | None:
        """The (n_masks x len(active)) masks the encoding spells, or
        ``None`` for a layout that carries none."""
        if self.codes is None:
            return None
        decoded = np.empty((len(self.salts), len(self.active)), dtype=np.uint64)
        for position, values in self.uniform:
            decoded[:, position] = next(iter(values))
        values = self.terms[0][:, 1]
        for j, (position, _) in enumerate(self.varying):
            decoded[:, position] = values[self.codes[:, j]]
        return decoded

    def equals(self, other: "ScanOperands") -> bool:
        """Same operands, value for value (the cache-coherence check); an
        encoding is compared by the masks it decodes to, not term for term."""
        same = all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("active", "masks", "weights", "salts")
        )
        mine, theirs = self.decoded(), other.decoded()
        if mine is None or theirs is None:
            return same and mine is theirs
        return same and np.array_equal(mine, theirs)


class ScanKernel:
    """Interface every scan kernel implements (one row of the name table).

    Two steps, split by what their inputs depend on.  :meth:`prepare`
    digests the mask list — ``masks`` is the (n_masks x N_COLUMNS) uint64
    mask matrix in scan order, ``salts`` the (n_masks,) per-mask salts —
    into a :class:`ScanOperands` snapshot; its cost is linear in masks and
    is paid once per mask-list change, not once per burst, and an append
    pays only for its new rows (:meth:`extend`).
    :meth:`build_plan` scans one chunk of keys against a snapshot plus the
    entry side, which moves with every insert and is passed fresh: the
    membership filter, the sorted compound set with each compound's slot,
    and per slot the entry's masked packed row and mask index.

    The plan is two lists, one element per key: ``first`` — the index of the
    first mask under which an indexed entry's row equals the key's masked
    row, or -1 — and ``slot`` — that entry's slot, or -1.
    """

    name = "abstract"

    def prepare(self, masks: np.ndarray, salts: np.ndarray) -> ScanOperands:
        active = _active_columns(masks)
        # Fancy indexing copies: the operands never alias the store's (in-place
        # appended) mask buffer.
        return self._operands(active, masks[:, active], salts.copy())

    def extend(
        self, operands: ScanOperands, masks: np.ndarray, salts: np.ndarray
    ) -> ScanOperands | None:
        """``prepare`` of ``operands``' mask list followed by ``masks`` (with
        their ``salts``), built from the snapshot and the new rows alone — or
        ``None`` when a new mask constrains a column the snapshot does not,
        which changes every row's layout (call ``prepare`` then)."""
        active = operands.active
        constrained = masks.any(axis=0)
        constrained[active] = False
        if constrained.any():
            return None
        return self._extend(operands, masks[:, active], salts)

    def _operands(self, active, compact, salts) -> ScanOperands:
        """Operands over ``compact``, the (n_masks x len(active)) masks."""
        raise NotImplementedError

    def _extend(self, operands: ScanOperands, compact, salts) -> ScanOperands:
        """``operands`` followed by ``compact``, new rows over its columns."""
        raise NotImplementedError

    def build_plan(
        self,
        rows: np.ndarray,            # (n_keys x N_COLUMNS) uint64 key matrix
        operands: ScanOperands,      # this kernel's prepare(masks, salts)
        filter_bits: np.ndarray,     # filter_alloc(log2) membership filter
        filter_shift: int,           # 64 - log2: filter_test's ``shift``
        compounds: np.ndarray,       # sorted uint64 entry-compound set
        compound_slots: np.ndarray,  # int64 slot of each compound
        slot_rows: np.ndarray,       # (>= n_slots x N_COLUMNS) uint64 masked rows
        slot_masks: np.ndarray,      # (>= n_slots,) int64 mask index per slot
    ) -> tuple[list[int], list[int]]:
        raise NotImplementedError


def _active_columns(masks: np.ndarray) -> np.ndarray:
    """Columns some mask constrains.  Most are fully wildcarded across the
    whole tuple space; their AND/MUL terms are identically zero, so both
    kernels skip them (uint64 addition is commutative: the compound is
    bit-identical), and so does the row comparison (a masked row is zero
    there)."""
    return np.flatnonzero(masks.any(axis=0)).astype(np.int64)


class NumpyScanKernel(ScanKernel):
    """The portable reference kernel: dense vectorised numpy pass."""

    name = "numpy"

    def _operands(self, active, compact, salts):
        # Column-major, so each broadcast operand below is one contiguous row.
        return ScanOperands(active, np.ascontiguousarray(compact.T), WEIGHTS[active], salts)

    def _extend(self, operands, compact, salts):
        return self._operands(
            operands.active,
            np.concatenate([operands.masks.T, compact]),
            np.concatenate([operands.salts, salts]),
        )

    def build_plan(self, rows, operands, filter_bits, filter_shift,
                   compounds, compound_slots, slot_rows, slot_masks):
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
        # Each filter hit, expanded to the run of indexed compounds equal to it.
        hit_keys, hit_masks = np.nonzero(filter_test(filter_bits, filter_shift, acc))
        values = acc[hit_keys, hit_masks]
        lo = np.searchsorted(compounds, values, side="left")
        counts = np.searchsorted(compounds, values, side="right") - lo
        owner = np.repeat(np.arange(len(values)), counts)
        positions = np.arange(len(owner)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        slots = compound_slots[positions]
        hit_keys, hit_masks = hit_keys[owner], hit_masks[owner]
        # Exact: the slot's entry sits under this mask, and its row is the
        # key's masked row.
        exact = slot_masks[slots] == hit_masks
        exact &= (
            slot_rows[slots][:, columns]
            == rows[hit_keys][:, columns] & mask_columns[:, hit_masks].T
        ).all(axis=1)
        hit_keys, hit_masks, slots = hit_keys[exact], hit_masks[exact], slots[exact]
        # np.nonzero is row-major, so a key's matches come in mask order: its
        # first is its hit.
        keys_hit, at = np.unique(hit_keys, return_index=True)
        first = np.full(n_keys, -1, dtype=np.int64)
        slot = np.full(n_keys, -1, dtype=np.int64)
        first[keys_hit] = hit_masks[at]
        slot[keys_hit] = slots[at]
        return first.tolist(), slot.tolist()


# -- compiled kernel -----------------------------------------------------------
# The mask side of a plan, built once per ScanOperands (it only holds
# pointers into the operands' arrays, which the operands keep alive).
_MASK_SIDE = """
struct mask_side {
    const uint64_t *masks;
    const int64_t *active;
    const uint64_t *salts;
    const uint32_t *codes;
    const uint64_t *terms;
    const int64_t *base_terms;
    int64_t n_masks, n_cols, n_terms, n_base, n_vary;
};
"""

_CDEF = _MASK_SIDE + """
int tss_scan(const uint64_t *rows, int64_t n_keys, const struct mask_side *ms,
             const uint8_t *filt, uint64_t shift,
             const uint64_t *comps, const int64_t *comp_slots,
             int64_t n_comps, const uint64_t *slot_rows,
             const int64_t *slot_masks, int64_t width,
             int64_t *first, int64_t *slot);
"""

_SOURCE = "#include <stdint.h>\n#include <stdlib.h>\n" + _MASK_SIDE + r"""
/* What a mask side holds.  masks: the n_masks x n_cols mask matrix over
 * the active columns of a row (tss_match compares with it); salts: one
 * per mask.  The hash reads the rest.  A term is a (column, mask value,
 * weight) triple, one per distinct value a column takes across the masks
 * (the column as its position in `active`), three uint64s in `terms`.
 * The n_base terms listed in base_terms belong to columns whose value is
 * the same in every mask; each mask's codes row names, per varying
 * column, the term of its value there (n_vary codes a mask). */

/* The scan is processed in strips of STRIP masks: the compound hashes of a
 * whole strip are computed first (sequential, prefetch-friendly), then the
 * membership filter is probed for each -- the probes are random accesses,
 * and issuing them as independent loads lets the out-of-order core overlap
 * them instead of paying one full latency per mask.  (C scan alone on the
 * detonated warm replay, us/key: STRIP 16 10.7-10.9, 64 10.1-10.3, 256
 * 10.4-10.7.) */
#define STRIP 64

#if defined(__GNUC__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#define NOINLINE static __attribute__((noinline))
#else
#define ALWAYS_INLINE static inline
#define NOINLINE static
#endif

/* The strip hash, defined once.  A compound is a sum of per-column
 * products (row & value) * weight, and a column takes only a few distinct
 * values across the masks, so tss_scan tabulates the key's product for
 * every term once (tab) and a mask's compound is base -- the uniform
 * columns' products -- plus one table read per varying column.  Always
 * inlined so that a call with a literal n_vary has a constant-trip column
 * loop the compiler unrolls; `restrict` on the output tells it a store to
 * accs cannot change what the loop reads. */
ALWAYS_INLINE void
strip_hash_cols(const uint64_t *tab, uint64_t base, const uint32_t *codes,
                const uint64_t *salts, int64_t n_vary, int64_t lim,
                uint64_t *restrict accs)
{
    for (int64_t i = 0; i < lim; i++, codes += n_vary) {
        uint64_t acc = base;
        for (int64_t c = 0; c < n_vary; c++)
            acc += tab[codes[c]];
        accs[i] = acc ^ salts[i];
    }
}

/* accs[i] = compound of the tabulated key under mask i of a strip of `lim`
 * masks.  Real mask lists vary in 1-4 columns (the detonated SipSpDp cache:
 * 3, its ip_proto uniform); anything wider (IPv6 address pairs, 5+ fields)
 * takes the runtime loop. */
static void strip_hash(const uint64_t *tab, uint64_t base, const uint32_t *codes,
                       const uint64_t *salts, int64_t n_vary, int64_t lim,
                       uint64_t *restrict accs)
{
    switch (n_vary) {
    case 0: strip_hash_cols(tab, base, codes, salts, 0, lim, accs); break;
    case 1: strip_hash_cols(tab, base, codes, salts, 1, lim, accs); break;
    case 2: strip_hash_cols(tab, base, codes, salts, 2, lim, accs); break;
    case 3: strip_hash_cols(tab, base, codes, salts, 3, lim, accs); break;
    case 4: strip_hash_cols(tab, base, codes, salts, 4, lim, accs); break;
    default: strip_hash_cols(tab, base, codes, salts, n_vary, lim, accs);
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

/* The entry side of a plan, as tss_match reads it: the sorted compound
 * set with each compound's slot; per slot the entry's masked row (`width`
 * columns) and mask index; and the compacted masks with the `n_cols`
 * columns (`active`) they constrain. */
struct entry_index {
    const uint64_t *comps;
    const int64_t *comp_slots;
    int64_t n_comps;
    const uint64_t *slot_rows;
    const int64_t *slot_masks;
    int64_t width;
    const uint64_t *masks;
    const int64_t *active;
    int64_t n_cols;
};

/* The exact match behind one filter hit: binary-search the sorted compound
 * set for `value`, then walk its run of equal compounds.  A slot matches
 * only if its entry sits under mask `m` and its masked row equals the
 * key's masked row on the active columns -- every other column is zero on
 * both sides.  Returns the slot, or -1 for a filter false positive or a
 * 64-bit compound collision.  Out of line, reading the entry side through
 * one pointer: it runs ~9 times a key on the detonated warm replay and the
 * probe loop around it ~4,100 times.  Inlined, or handed a dozen arguments,
 * its operands crowd that loop's registers and the compiler spills the
 * filter shift (C scan 13.3-13.9 us/key inlined, 12.1-12.8 with arguments;
 * through one pointer it matches a bare membership probe). */
NOINLINE int64_t tss_match(const struct entry_index *ix, uint64_t value,
                           int64_t m, const uint64_t *row)
{
    const uint64_t *mask = ix->masks + m * ix->n_cols;
    int64_t lo = 0, hi = ix->n_comps;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (ix->comps[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    for (; lo < ix->n_comps && ix->comps[lo] == value; lo++) {
        int64_t s = ix->comp_slots[lo];
        const uint64_t *entry = ix->slot_rows + s * ix->width;
        int64_t c = 0;
        if (ix->slot_masks[s] != m)
            continue;
        while (c < ix->n_cols && entry[ix->active[c]] == (row[c] & mask[c]))
            c++;
        if (c == ix->n_cols)
            return s;
    }
    return -1;
}

/* Per key: tabulate its products, then scan masks in order and stop at
 * the first exact match (under Inv(2) the only one).  first[k] is its
 * mask index and slot[k] the entry's slot, both -1 when no mask matches.
 * The key's product table is one heap block per call, so plans running at
 * once (the GIL is released) never share one; one slot more than the terms,
 * so a list with no active column still gets a block.  Returns 0, or -1
 * when the table could not be allocated. */
int tss_scan(const uint64_t *rows, int64_t n_keys, const struct mask_side *ms,
             const uint8_t *filt, uint64_t shift,
             const uint64_t *comps, const int64_t *comp_slots,
             int64_t n_comps, const uint64_t *slot_rows,
             const int64_t *slot_masks, int64_t width,
             int64_t *first, int64_t *slot)
{
    const struct entry_index ix = {comps, comp_slots, n_comps, slot_rows,
                                   slot_masks, width, ms->masks, ms->active,
                                   ms->n_cols};
    const int64_t n_masks = ms->n_masks, n_vary = ms->n_vary;
    uint64_t accs[STRIP];
    uint64_t *tab = malloc((size_t)(ms->n_terms + 1) * sizeof *tab);
    if (tab == NULL)
        return -1;
    for (int64_t k = 0; k < n_keys; k++) {
        const uint64_t *row = rows + k * ms->n_cols;
        int64_t hit = -1, hit_slot = -1;
        uint64_t base = 0;
        for (int64_t t = 0; t < ms->n_terms; t++) {
            const uint64_t *term = ms->terms + 3 * t;
            tab[t] = (row[term[0]] & term[1]) * term[2];
        }
        for (int64_t u = 0; u < ms->n_base; u++)
            base += tab[ms->base_terms[u]];
        for (int64_t start = 0; start < n_masks && hit < 0; start += STRIP) {
            int64_t lim = n_masks - start;
            if (lim > STRIP)
                lim = STRIP;
            strip_hash(tab, base, ms->codes + start * n_vary, ms->salts + start,
                       n_vary, lim, accs);
            for (int64_t i = 0; i < lim; i++) {
                if (!filter_has(filt, shift, accs[i]))
                    continue;
                hit_slot = tss_match(&ix, accs[i], start + i, row);
                if (hit_slot >= 0) {
                    hit = start + i;
                    break;
                }
            }
        }
        first[k] = hit;
        slot[k] = hit_slot;
    }
    free(tab);
    return 0;
}
"""

# Plain -O3: the per-mask loop reads a table at data-dependent indices,
# which baseline x86-64 SIMD cannot gather, so auto-vectorisation leaves
# the scan alone (C scan alone on the detonated warm replay: 10.2-10.5
# us/key, and 10.2-10.9 with -fno-tree-vectorize).
_COMPILE_ARGS = ["-O3"]

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


class CffiScanKernel(ScanKernel):
    """Early-exit compiled C kernel (cffi API mode, GIL released in C)."""

    name = "cffi"

    def __init__(self):
        self._ffi, self._lib = _cffi_runtime()

    def _operands(self, active, compact, salts):
        # An empty mask list whose every column is uniform at the first
        # mask's value (one term each), extended by all the masks: the rows
        # that disagree turn a column varying, as in any extend.
        first = compact[0].tolist() if len(compact) else []
        weights = WEIGHTS[active]
        empty = ScanOperands(
            active, compact[:0], weights, salts[:0],
            uniform=tuple((p, {value: p}) for p, value in enumerate(first)), varying=(),
            codes=np.zeros((0, 0), dtype=np.uint32),
            terms=(
                np.array([[p, value, w] for p, (value, w) in enumerate(zip(first, weights.tolist()))],
                         dtype=np.uint64).reshape(-1, 3),
                np.arange(len(first), dtype=np.int64),
            ),
            pointers=(None, None, None),
        )
        return self._extend(empty, compact, salts)

    def _extend(self, operands, compact, salts):
        """Linear in the new rows: each looks its values up in the
        dictionaries.  A value no dictionary holds yet appends a term; a
        uniform column some new row breaks turns varying, every old mask
        coded to its one term.  Old codes and terms are never rewritten,
        and the C views of the terms are rebuilt only when they change."""
        active, codes, weights = operands.active, operands.codes, operands.weights
        terms, base = operands.terms
        views = operands.pointers[1]
        columns = compact.T.tolist()
        kept, varying, broken = [], list(operands.varying), []
        for position, values in operands.uniform:
            if columns[position].count(next(iter(values))) == len(compact):
                kept.append((position, values))
            else:
                varying.append((position, values))
                broken.extend(values.values())
        n_old, n_vary = len(codes), len(varying)
        grown_codes = np.empty((n_old + len(compact), n_vary), dtype=np.uint32)
        grown_codes[:n_old, : n_vary - len(broken)] = codes
        grown_codes[:n_old, n_vary - len(broken):] = broken
        fresh = []  # a (position, value, weight) row per term appended
        for j, (position, values) in enumerate(varying):
            column = columns[position]
            try:
                grown_codes[n_old:, j] = np.fromiter(
                    map(values.__getitem__, column), dtype=np.uint32, count=len(column)
                )
                continue
            except KeyError:  # a value the dictionary does not hold yet
                pass
            values = dict(values)
            weight = int(weights[position])
            for value in dict.fromkeys(column):
                if value not in values:
                    values[value] = len(terms) + len(fresh)
                    fresh.append((position, value, weight))
            varying[j] = (position, values)
            grown_codes[n_old:, j] = np.fromiter(
                map(values.__getitem__, column), dtype=np.uint32, count=len(column)
            )
        view = self._ffi.from_buffer
        if fresh or broken or views is None:
            if fresh:
                terms = np.concatenate([terms, np.array(fresh, dtype=np.uint64)])
            if broken:
                base = np.array([t for _, values in kept for t in values.values()], dtype=np.int64)
            views = (view("uint64_t[]", terms), view("int64_t[]", base))
        masks = np.ascontiguousarray(np.concatenate([operands.masks, compact]))
        salts = np.concatenate([operands.salts, salts])
        arrays = (
            view("uint64_t[]", masks),
            operands.pointers[2][1] if operands.pointers[2] else view("int64_t[]", active),
            view("uint64_t[]", salts), view("uint32_t[]", grown_codes),
        )
        side = self._ffi.new("struct mask_side *", [
            *arrays, *views, len(salts), len(active), len(terms), len(kept), n_vary,
        ])
        return ScanOperands(
            active, masks, weights, salts, tuple(kept), tuple(varying), grown_codes,
            (terms, base), pointers=(side, views, arrays),
        )

    def build_plan(self, rows, operands, filter_bits, filter_shift,
                   compounds, compound_slots, slot_rows, slot_masks):
        # C reads raw memory: every array it is handed is C-contiguous in
        # the dtype its signature names (a no-op for the store's own arrays).
        n_keys = len(rows)
        rows_c = np.ascontiguousarray(rows[:, operands.active], dtype=np.uint64)
        filt_c = np.ascontiguousarray(filter_bits, dtype=np.uint8)
        comps_c = np.ascontiguousarray(compounds, dtype=np.uint64)
        comp_slots_c = np.ascontiguousarray(compound_slots, dtype=np.int64)
        slot_rows_c = np.ascontiguousarray(slot_rows, dtype=np.uint64)
        slot_masks_c = np.ascontiguousarray(slot_masks, dtype=np.int64)
        if len(comp_slots_c) != len(comps_c) or slot_rows_c.shape[1] != N_COLUMNS:
            raise ValueError("entry index arrays disagree in shape")
        first = np.empty(n_keys, dtype=np.int64)
        slot = np.empty(n_keys, dtype=np.int64)
        view = self._ffi.from_buffer
        if self._lib.tss_scan(
            view("uint64_t[]", rows_c), n_keys, operands.pointers[0],
            view("uint8_t[]", filt_c), filter_shift,
            view("uint64_t[]", comps_c), view("int64_t[]", comp_slots_c), len(comps_c),
            view("uint64_t[]", slot_rows_c), view("int64_t[]", slot_masks_c), N_COLUMNS,
            view("int64_t[]", first, require_writable=True),
            view("int64_t[]", slot, require_writable=True),
        ):
            raise MemoryError("no memory for the scan's product table")
        return first.tolist(), slot.tolist()


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


# -- the name table --------------------------------------------------------------
_NUMPY_KERNEL = NumpyScanKernel()

#: One row per kernel: name -> factory.  ``"auto"`` resolves to a row.
_KERNELS = {
    "numpy": lambda: _NUMPY_KERNEL,
    "cffi": CffiScanKernel,
}


def scan_kernel_names() -> tuple[str, ...]:
    return ("auto", *sorted(_KERNELS))


def resolve_scan_kernel_name(name: str = "auto") -> str:
    """What ``make_scan_kernel(name)`` would actually build right now."""
    if name == "auto":
        return "cffi" if cffi_kernel_available() else "numpy"
    if name not in _KERNELS:
        raise ClassifierError(
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
    return _KERNELS[resolved]()
