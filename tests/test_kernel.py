"""Scan-kernel tests: cffi ≡ numpy ≡ Algorithm 1 over the dicts, exactly.

The kernels in :mod:`repro.classifier.kernel` decide a hit by exact row
equality, so no kernel choice may ever change a lookup outcome, a
``masks_inspected`` count, or a statistics counter.  These tests drive
identical install / lookup / shuffle / salt-growth traces through a
numpy-kernel TSS, a cffi-kernel TSS (when the toolchain built it) and
per-key ``lookup``, require transcript equality, and hold every result
against the pure-Python scan (the ``scan_oracle`` fixture).  They also pin
what exactness rests on: the packed row is injective, a 64-bit compound
collision never decides a hit, an entry deleted behind the index is caught
under ``check_invariants``, the cffi operands' mask encoding is the same
after any chain of ``extend`` calls as after one ``prepare``, and the C
runs clean under ASan/UBSan.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.actions import ALLOW
from repro.classifier.backend import MegaflowEntry
from repro.classifier import kernel as kernel_module
from repro.classifier.flowtable import FlowTable
from repro.classifier.kernel import (
    COLUMN_SPLITS,
    FORCE_NUMPY_ENV,
    N_COLUMNS,
    WEIGHTS,
    cffi_kernel_available,
    make_scan_kernel,
    resolve_scan_kernel_name,
    scan_kernel_names,
    to_column_matrix,
)
from repro.classifier.rule import Match
from repro.classifier.tss import TupleSpaceSearch
from repro.exceptions import CacheInvariantError, ClassifierError
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey, FlowMask
from repro.switch.datapath import Datapath, DatapathConfig
from tests.store_helpers import lookup_batch, migrate

CFFI_AVAILABLE = cffi_kernel_available()
needs_cffi = pytest.mark.skipif(
    not CFFI_AVAILABLE, reason="cffi scan kernel unavailable (no compiler?)"
)

KERNELS = ("numpy", "cffi") if CFFI_AVAILABLE else ("numpy",)


def _prefix(bits: int, width: int = 32) -> int:
    return ((1 << bits) - 1) << (width - bits) if bits else 0


# Masks differ in ip_src/ip_dst prefix length but all pin tp_dst exactly;
# entries get globally unique tp_dst values, so every pair of entries is
# disjoint (Inv(2)) by construction whatever hypothesis draws.
MASK_SPACE = [
    (src_bits, dst_bits) for src_bits in (0, 8, 16, 24, 32) for dst_bits in (0, 16, 32)
]


def _mask(src_bits: int, dst_bits: int) -> FlowMask:
    return FlowMask(
        ip_src=_prefix(src_bits), ip_dst=_prefix(dst_bits), tp_dst=0xFFFF
    )


def _entry(mask_pick: int, src: int, dst: int, tp_dst: int) -> MegaflowEntry:
    src_bits, dst_bits = MASK_SPACE[mask_pick % len(MASK_SPACE)]
    mask = _mask(src_bits, dst_bits)
    key = FlowKey(ip_src=src, ip_dst=dst, tp_dst=tp_dst).masked(mask)
    return MegaflowEntry(mask=mask, key=key, action=ALLOW)


def _summarise(result) -> tuple:
    entry = result.entry
    return (
        result.hit,
        None if entry is None else (entry.mask.values, entry.key),
        result.masks_inspected,
    )


def _drive(kernel: str, entries, probes, shuffle_seed: int) -> tuple:
    """One full trace through a TSS instance; returns its transcript."""
    tss = TupleSpaceSearch(scan_kernel=kernel)
    transcript = []
    half = len(entries) // 2
    for entry in entries[:half]:
        tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=entry.action))
    transcript.append([_summarise(r) for r in lookup_batch(tss, probes, now=1.0)])
    for entry in entries[half:]:
        tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=entry.action))
    transcript.append([_summarise(r) for r in lookup_batch(tss, probes, now=2.0)])
    tss.shuffle_masks(seed=shuffle_seed)
    transcript.append([_summarise(r) for r in lookup_batch(tss, probes, now=3.0)])
    transcript.append(
        (tss.stats_hits, tss.stats_misses, tss.stats_scans, tss.stats_scan_probes)
    )
    return tuple(map(tuple, transcript[:-1])) + (transcript[-1],)


def _drive_sequential(entries, probes, shuffle_seed: int) -> tuple:
    """The same trace, one ``lookup`` at a time."""
    tss = TupleSpaceSearch(scan_kernel="numpy")
    transcript = []
    half = len(entries) // 2
    for entry in entries[:half]:
        tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=entry.action))
    transcript.append(tuple(_summarise(tss.lookup(k, now=1.0)) for k in probes))
    for entry in entries[half:]:
        tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=entry.action))
    transcript.append(tuple(_summarise(tss.lookup(k, now=2.0)) for k in probes))
    tss.shuffle_masks(seed=shuffle_seed)
    transcript.append(tuple(_summarise(tss.lookup(k, now=3.0)) for k in probes))
    transcript.append(
        (tss.stats_hits, tss.stats_misses, tss.stats_scans, tss.stats_scan_probes)
    )
    return tuple(transcript)


# -- every active-column count ---------------------------------------------------
# Mask families by active column count (an IPv6 address is two columns).  A
# family's masks differ in the first field's prefix length -- always >= 8
# bits, and every entry gets its own top byte there, so entries are pairwise
# disjoint -- and match the other fields exactly.  So the first field's
# columns vary and the rest are uniform; the C strip hash branches on the
# number of varying columns, which TestEncoding's random lists take through
# 0-6.
_WIDTH_FAMILIES = {
    0: (),
    1: ("ip_src",),
    2: ("ip_src", "tp_dst"),
    3: ("ip_src", "ip_dst", "tp_dst"),
    4: ("ip_src", "ip_dst", "tp_src", "tp_dst"),
    6: ("ipv6_src", "ipv6_dst", "tp_src", "tp_dst"),
}
_WILDCARDED_BITS = (24, 20, 13, 8, 3, 0)  # of the first field, per mask


def _width_family(fields: tuple[str, ...]):
    """(entries, probes) of one family: hits at every mask, then misses."""
    if not fields:
        entry = MegaflowEntry(mask=FlowMask(), key=FlowKey().values, action=ALLOW)
        return [entry], [FlowKey(), FlowKey(ip_src=7, tp_dst=9)]
    first, rest = fields[0], fields[1:]
    width = FIELDS[first].width
    entries, probes = [], []
    for m, wild in enumerate(_WILDCARDED_BITS):
        mask = FlowMask(
            **{first: _prefix(width - wild, width)},
            **{name: FIELDS[name].full_mask for name in rest},
        )
        for e in range(3):
            n = 3 * m + e + 1
            key = FlowKey(
                **{first: (n << (width - 8)) | (0x5A5A5A * n & ((1 << (width - 8)) - 1))},
                **{name: (n * 257 + i) & FIELDS[name].full_mask for i, name in enumerate(rest)},
            )
            entries.append(
                MegaflowEntry(mask=mask, key=key.masked(mask), action=ALLOW)
            )
            probes.append(key)  # unmasked: hits through the wildcarded bits
            # Same key off by one matched bit: the top one of the first
            # field, and the lowest of the last.
            probes.append(key.replace(**{first: key[first] ^ (1 << (width - 1))}))
            probes.append(key.replace(**{fields[-1]: key[fields[-1]] ^ 1}))
    return entries, probes


@pytest.mark.usefixtures("scan_oracle")
class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.integers(0, len(MASK_SPACE) - 1),  # mask pick
                st.integers(0, 0xFFFFFFFF),  # ip_src
                st.integers(0, 0xFFFFFFFF),  # ip_dst
            ),
            min_size=1,
            max_size=24,
        ),
        miss_probes=st.lists(
            st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(2000, 0xFFFF)),
            max_size=8,
        ),
        shuffle_seed=st.integers(0, 5),
    )
    def test_kernels_and_sequential_agree(self, draws, miss_probes, shuffle_seed):
        """Hypothesis: random install/lookup/shuffle traces are transcript-
        identical across kernels, batch and sequential."""
        entries = [
            _entry(pick, src, dst, tp_dst=index)  # unique tp_dst => disjoint
            for index, (pick, src, dst) in enumerate(draws)
        ]
        probes = [FlowKey.from_values(e.key) for e in entries] + [
            FlowKey(ip_src=src, tp_dst=tp_dst) for src, tp_dst in miss_probes
        ]
        reference = _drive_sequential(entries, probes, shuffle_seed)
        for kernel in KERNELS:
            assert _drive(kernel, entries, probes, shuffle_seed) == reference, kernel

    @needs_cffi
    def test_salt_growth_past_64_masks(self):
        """> 64 masks forces the append-only salt buffer to grow; the cffi
        and numpy kernels must track the identical salt sequence."""
        entries = []
        for index in range(90):  # 90 distinct (src, dst) prefix pairs
            mask = FlowMask(
                ip_src=_prefix(index % 33),
                ip_dst=_prefix(index // 33 + 1),
                tp_dst=0xFFFF,
            )
            key = FlowKey(
                ip_src=(37 * index) & 0xFFFFFFFF,
                ip_dst=(91 * index) & 0xFFFFFFFF,
                tp_dst=index,
            ).masked(mask)
            entries.append(MegaflowEntry(mask=mask, key=key, action=ALLOW))
        probes = [FlowKey.from_values(e.key) for e in entries]
        probes += [FlowKey(ip_src=index, tp_dst=5000 + index) for index in range(20)]
        reference = _drive_sequential(entries, probes, shuffle_seed=3)
        assert _drive("numpy", entries, probes, 3) == reference
        assert _drive("cffi", entries, probes, 3) == reference
        # The trace really did cross the growth threshold.
        tss = TupleSpaceSearch()
        for entry in entries:
            tss.insert(entry)
        assert tss.n_masks > 64

    @pytest.mark.parametrize("width", sorted(_WIDTH_FAMILIES))
    def test_every_hash_width(self, width):
        """0-6 active columns, an IPv6 address pair among them: hits at
        every mask, misses and shuffled orders agree across kernels and
        with the sequential scan."""
        entries, probes = _width_family(_WIDTH_FAMILIES[width])
        tss = TupleSpaceSearch(scan_kernel="numpy")
        for entry in entries:
            tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=ALLOW))
        results = lookup_batch(tss, probes)
        assert len(tss._scan_operands().active) == width
        assert {r.masks_inspected for r in results if r.hit} == set(
            range(1, tss.n_masks + 1)
        )
        assert width == 0 or any(not r.hit for r in results)
        reference = _drive_sequential(entries, probes, shuffle_seed=2)
        for kernel in KERNELS:
            assert _drive(kernel, entries, probes, 2) == reference, kernel


# -- the tabulated hash's encoding ---------------------------------------------------
# The cffi operands spell each mask as codes into per-column dictionaries.
# A family's fields (0-6 active columns; the IPv6 pair is 4 of them, so 5+
# varying columns take the C runtime loop) each draw a pool of 1-4 mask
# values -- prefix-shaped or arbitrary, 0 included, so a column can turn
# active mid-chain -- and every mask picks one value per field.  A pool of
# one is a uniform column; a family of all one-value pools (or no fields)
# is a list with no varying column at all.
def _mask_pool(field: str):
    width = FIELDS[field].width
    value = st.one_of(
        st.integers(0, width).map(lambda bits: _prefix(bits, width)),
        st.integers(0, FIELDS[field].full_mask),
    )
    return st.lists(value, min_size=1, max_size=4)


@st.composite
def _mask_lists(draw, min_size: int = 1):
    """(fields, list of FlowMasks) of one family; masks may repeat."""
    fields = _WIDTH_FAMILIES[draw(st.sampled_from(sorted(_WIDTH_FAMILIES)))]
    pools = {field: draw(_mask_pool(field)) for field in fields}
    picks = draw(st.lists(
        st.tuples(*[st.integers(0, 3) for _ in fields]), min_size=min_size, max_size=40,
    ))
    return fields, [
        FlowMask(**{f: pools[f][i % len(pools[f])] for f, i in zip(fields, pick)})
        for pick in picks
    ]


def _chain_cuts(draw, n: int) -> list[int]:
    """Ascending cut points 1 <= c <= n ending at n: a prepare, then extends."""
    cuts = draw(st.lists(st.integers(1, n), max_size=6))
    return sorted(set(cuts) | {n})


def _algorithm1_rows(rows, masks, slot_rows, slot_masks):
    """(first, slot) per key row: the first mask under which an entry's row
    equals the key's masked row (Algorithm 1 over packed rows)."""
    first, slot = [], []
    for row in rows:
        found = (-1, -1)
        for m, mask in enumerate(masks):
            hits = np.flatnonzero((slot_masks == m) & (slot_rows == row & mask).all(axis=1))
            if len(hits):
                found = (m, int(hits[0]))
                break
        first.append(found[0])
        slot.append(found[1])
    return first, slot


class TestEncoding:
    """Chained ``extend`` spells the same operands as a fresh ``prepare``,
    and a plan over either finds what Algorithm 1 finds, in both kernels."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_extend_chains_equal_a_fresh_prepare(self, data):
        _, masks = data.draw(_mask_lists())
        rows = to_column_matrix([mask.values for mask in masks])
        n = len(rows)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        salts = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        cuts = _chain_cuts(data.draw, n)
        # The entry side: an entry under a random mask for some keys, keys
        # that share its masked row, and keys that hit nothing.
        keys = rng.integers(0, 2**63, size=(2 * n + 4, N_COLUMNS), dtype=np.uint64)
        under = rng.integers(0, n, size=n)
        slot_rows = keys[:n] & rows[under]
        _, unique = np.unique(np.column_stack([under, slot_rows]), axis=0, return_index=True)
        slot_rows, slot_masks = slot_rows[np.sort(unique)], under[np.sort(unique)]
        compounds = ((slot_rows * WEIGHTS).sum(axis=1, dtype=np.uint64)) ^ salts[slot_masks]
        order = np.argsort(compounds, kind="stable")
        filter_bits = kernel_module.filter_alloc(6)  # 64 slots: false positives galore
        kernel_module.filter_set(filter_bits, 58, compounds)
        keys[n : 2 * n] = keys[:n] & rows[under] | rng.integers(
            0, 2**63, size=(n, N_COLUMNS), dtype=np.uint64
        ) & ~rows[under]
        want = _algorithm1_rows(keys, rows, slot_rows, slot_masks)

        for name in KERNELS:
            kernel = make_scan_kernel(name)
            operands = kernel.prepare(rows[: cuts[0]], salts[: cuts[0]])
            for start, end in zip(cuts, cuts[1:]):
                new_column = bool((rows[start:end].any(axis=0) & ~rows[:start].any(axis=0)).any())
                extended = kernel.extend(operands, rows[start:end], salts[start:end])
                # None exactly when a column turns active -- never for a
                # uniform column a new mask breaks.
                assert (extended is None) == new_column
                if extended is not None:
                    # A snapshot is immutable: extending it again by the same
                    # rows spells the same operands, and the chain (and the
                    # plan below) goes on from this second branch.
                    extended = kernel.extend(operands, rows[start:end], salts[start:end])
                fresh = kernel.prepare(rows[:end], salts[:end])
                operands = fresh if extended is None else extended
                assert operands.equals(fresh)
            if name == "cffi":
                assert np.array_equal(operands.decoded(), operands.masks)
            got = kernel.build_plan(
                keys, operands, filter_bits, 58, compounds[order], order.astype(np.int64),
                slot_rows, slot_masks.astype(np.int64),
            )
            assert got == want, name

    @pytest.mark.usefixtures("scan_oracle")
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_masks_agree_with_the_oracle(self, data):
        """Through the store: bursts of random masks, each burst's drain
        extending the cached operands, which ``check_invariants`` holds to
        a fresh ``prepare`` on every plan."""
        fields, masks = data.draw(_mask_lists())
        if not fields:
            return  # one entry at most; test_every_hash_width covers it
        first, width = fields[0], FIELDS[fields[0]].width
        top = _prefix(8, width)
        masks = list(dict.fromkeys(  # every mask pins the first field's top byte
            FlowMask(**{field: mask[field] | (top if field == first else 0) for field in fields})
            for mask in masks
        ))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        entries, probes = [], []
        for n, mask in enumerate(masks):
            key = FlowKey(**{
                field: int(rng.integers(0, 2**62)) * 7 & FIELDS[field].full_mask
                for field in fields
            })
            key = key.replace(**{first: (n + 1) << (width - 8) | key[first] & ~top})
            entries.append(MegaflowEntry(mask=mask, key=key.masked(mask), action=ALLOW))
            probes += [key, key.replace(**{first: key[first] ^ 1})]
        probes.append(FlowKey(**{first: 0xFF << (width - 8)}))
        cuts = _chain_cuts(data.draw, len(entries))
        transcripts = []
        for name in KERNELS:
            tss = TupleSpaceSearch(check_invariants=True, scan_kernel=name)
            transcript = []
            for start, end in zip([0, *cuts], cuts):
                tss.insert_batch(entries[start:end])
                transcript.append([_summarise(r) for r in lookup_batch(tss, probes)])
            transcripts.append(transcript)
        assert all(t == transcripts[0] for t in transcripts)


# -- operand-cache coherence ---------------------------------------------------
# Two exact-match allow rules: a key that first disagrees with rule 1 at
# ip_src bit i and with rule 2 at ip_dst bit j spawns the megaflow mask
# (i+1-bit src prefix, j+1-bit dst prefix) -- 1,024 distinct masks on demand.
_SRC, _DST = 0x0A000001, 0xC0A80001


def _coherence_table() -> FlowTable:
    table = FlowTable()
    table.add_rule(Match(ip_src=_SRC), ALLOW, priority=20, name="src")
    table.add_rule(Match(ip_dst=_DST), ALLOW, priority=10, name="dst")
    return table


def _fresh_mask_key(n: int) -> FlowKey:
    """The ``n``-th key of a sequence in which every key spawns a new mask."""
    i, j = divmod(n, 32)
    return FlowKey(ip_src=_SRC ^ (1 << (31 - i)), ip_dst=_DST ^ (1 << (31 - j)))


def _verdict_summary(verdict) -> tuple:
    installed = verdict.installed
    return (
        verdict.action,
        verdict.path,
        verdict.masks_inspected,
        verdict.rules_examined,
        None if installed is None else (installed.mask, installed.key),
    )


_COHERENCE_OPS = st.one_of(
    # A 1-8 key burst: True draws the next never-seen key (a new mask),
    # an integer replays an earlier key (cached operands reused).
    st.tuples(
        st.just("burst"),
        st.lists(st.one_of(st.just(True), st.integers(0, 10_000)), min_size=1, max_size=8),
    ),
    st.tuples(st.just("shuffle"), st.integers(0, 7)),
    st.tuples(st.just("remove"), st.integers(0, 10_000)),
    st.tuples(st.just("evict"), st.none()),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("migrate"), st.none()),
)


class TestOperandCacheCoherence:
    """The cached ``ScanOperands`` snapshot never outlives the mask list it
    digests: small bursts interleaved with everything that moves the mask
    buffer agree with per-key ``lookup`` on a twin, while
    ``check_invariants`` compares the cache with a fresh ``prepare`` on
    every plan."""

    @pytest.mark.usefixtures("scan_oracle")
    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(_COHERENCE_OPS, min_size=1, max_size=30))
    def test_small_bursts_agree_with_per_key_lookup(self, kernel, ops):
        config = DatapathConfig(
            microflow_capacity=0, check_invariants=True, scan_kernel=kernel
        )
        batched = Datapath(_coherence_table(), config)
        twin = Datapath(_coherence_table(), config)
        seen: list[FlowKey] = []
        clock = 0.0

        def burst(picks) -> None:
            nonlocal clock
            keys = []
            for pick in picks:
                if pick is True or not seen:
                    seen.append(_fresh_mask_key(len(seen)))
                    keys.append(seen[-1])
                else:
                    keys.append(seen[pick % len(seen)])
            clock += 1.0
            got = batched.process_batch(keys, now=clock).verdicts
            want = [twin.process(key, now=clock) for key in keys]
            assert [_verdict_summary(v) for v in got] == [
                _verdict_summary(v) for v in want
            ]

        # 60 masks in 8-key bursts, then one burst that outgrows the
        # 64-row mask buffer between two replays.
        for start in range(0, 60, 8):
            burst([True] * min(8, 60 - start))
        burst([0, True, True, True, 1, True, True, True])
        assert batched.megaflows._acc_capacity == 128
        for op, arg in ops:
            if op == "burst":
                burst(arg)
            elif op == "shuffle":
                batched.megaflows.shuffle_masks(seed=arg)
                twin.megaflows.shuffle_masks(seed=arg)
            elif op == "remove":
                victims = list(batched.megaflows.entries())
                if victims:
                    victim = victims[arg % len(victims)]
                    assert batched.megaflows.remove_entries([victim]) == [victim]
                    assert twin.megaflows.remove_entries([twin.megaflows.get_entry(victim.mask, victim.key)])
            elif op == "evict":
                clock += 4.0
                assert len(batched.evict_idle(clock)) == len(twin.evict_idle(clock))
            elif op == "flush":
                batched.flush_caches()
                twin.flush_caches()
            else:
                migrate(batched, "tss")
                migrate(twin, "tss")
        for start in range(0, len(seen), 5):
            burst(range(start, min(start + 5, len(seen))))
        assert batched.megaflows.masks() == twin.megaflows.masks()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stale_operands_are_caught(self, kernel):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        tss.insert(_entry(0, 1, 2, 3))
        probe = [FlowKey(ip_src=9, tp_dst=9)]
        lookup_batch(tss, probe)
        stale = tss._acc_operands
        tss.insert(_entry(1, 4, 5, 6))  # a second mask drops the snapshot
        assert tss._acc_operands is None
        tss._acc_operands = stale
        tss.clear_memo()
        with pytest.raises(CacheInvariantError):
            lookup_batch(tss, probe)


# -- membership-filter coherence -------------------------------------------------
def _filter_entry(n: int) -> MegaflowEntry:
    """The ``n``-th of a family of pairwise-disjoint entries (unique tp_dst)."""
    return _entry(n % len(MASK_SPACE), 0x9E3779B1 * n & 0xFFFFFFFF, 0x85EBCA6B * n & 0xFFFFFFFF, n)


def _filter_log2(tss: TupleSpaceSearch) -> int:
    return 64 - tss._acc_filter_shift


class TestFilterCoherence:
    """The filter never loses an indexed compound, whichever path wrote it
    and however often it was regrown; ``check_invariants`` proves it on
    every plan."""

    @pytest.mark.usefixtures("scan_oracle")
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_false_negatives_across_growth(self, kernel):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        entries = [_filter_entry(n) for n in range(1100)]
        keys = [FlowKey.from_values(entry.key) for entry in entries]
        tss.insert(entries[0])
        lookup_batch(tss, keys[:1])  # builds the accelerator; inserts index from here
        start = _filter_log2(tss)

        # Per-entry appends, up to the first growth threshold with the last
        # 63 of them still pending ...
        for entry in entries[1:256]:
            tss.insert(entry)
        assert tss._acc_backlog() == 63 and _filter_log2(tss) == start
        # ... so this regrowth re-files sorted and pending compounds alike.
        tss._acc_filter_maybe_grow()
        assert _filter_log2(tss) == start + 2
        tss._check_filter()
        assert tss.lookup(keys[255]).entry is entries[255]  # found while pending

        # Burst drains carry it through the next growth step.
        for first in range(256, len(entries), 256):
            tss.insert_batch(entries[first:first + 256])
        assert _filter_log2(tss) == start + 4
        tss.clear_memo()
        results = lookup_batch(tss, keys)  # _check_filter on every plan
        assert [r.entry for r in results] == entries

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stale_filter_is_caught(self, kernel):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        tss.insert(_entry(0, 1, 2, 3))
        probe = [FlowKey(ip_src=9, tp_dst=9)]
        lookup_batch(tss, probe)
        slot = int(tss._acc_compounds[0]) >> tss._acc_filter_shift
        tss._acc_filter[slot >> 3] &= ~(1 << (slot & 7)) & 0xFF
        tss.clear_memo()
        with pytest.raises(CacheInvariantError):
            lookup_batch(tss, probe)


# -- exactness ---------------------------------------------------------------------
def _from_columns(row) -> tuple[int, ...]:
    """The field values a packed row was packed from (the row's inverse)."""
    values = [0] * len(FIELD_ORDER)
    for column, (index, shift) in enumerate(COLUMN_SPLITS):
        values[index] |= int(row[column]) << shift
    return tuple(values)


def _masked_hash(values, mask: FlowMask) -> int:
    """The compound of ``values`` under ``mask`` before its salt."""
    row, mask_row = to_column_matrix([values, mask.values])
    return int(((row & mask_row) * WEIGHTS).sum(dtype=np.uint64))


def _weights(field: str) -> list[int]:
    """The hash weights of ``field``'s columns (hi, lo for a 128-bit one)."""
    return [
        int(WEIGHTS[column])
        for column, (index, _) in enumerate(COLUMN_SPLITS)
        if FIELD_ORDER[index] == field
    ]


_IPV6 = FIELDS["ipv6_src"].full_mask


class TestExactness:
    """A hit is decided by comparing packed rows, so the row must say
    everything the values say, and a compound may never decide alone."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.fixed_dictionaries(
            {name: st.integers(0, FIELDS[name].full_mask) for name in FIELD_ORDER}
        )
    )
    def test_packed_row_is_injective(self, values):
        """The row unpacks to the values it was packed from — IPv6's 128
        bits included, split hi/lo — so equal rows are equal keys."""
        key = FlowKey(**values)
        assert _from_columns(to_column_matrix([key.values])[0]) == key.values

    @pytest.mark.usefixtures("scan_oracle")
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_compound_collisions_never_decide(self, kernel):
        """One compound, three ways.  Masks ``narrow`` (scan position 0) and
        ``wide`` (1) get equal salts, and IPv6's two 64-bit columns let a
        hash preimage be solved, so: the two entries share a compound; the
        wide entry's key, masked by ``narrow``, *is* the wide entry's row
        (only its mask differs); and a third key collides with the wide
        entry under ``wide`` itself.  Each key gets its own entry, or none,
        at its own ``masks_inspected``."""
        narrow = FlowMask(ipv6_src=_IPV6, tp_dst=0xFFFF)
        wide = FlowMask(ipv6_src=_IPV6)
        (w_hi, w_lo), (w_tp,) = _weights("ipv6_src"), _weights("tp_dst")
        hi, lo = 7, 9
        wide_entry = MegaflowEntry(wide, FlowKey(ipv6_src=(hi << 64) | lo).values, ALLOW)
        # (hi + w_lo) * w_hi + (lo - w_hi - 80 w_tp / w_lo) * w_lo + 80 w_tp
        #   == hi * w_hi + lo * w_lo  (mod 2**64; weights are odd, so invertible)
        narrow_lo = (lo - w_hi - 80 * w_tp * pow(w_lo, -1, 2**64)) % 2**64
        narrow_entry = MegaflowEntry(
            narrow, FlowKey(ipv6_src=((hi + w_lo) % 2**64) << 64 | narrow_lo, tp_dst=80).values, ALLOW
        )
        collider = FlowKey(ipv6_src=((hi + w_lo) % 2**64) << 64 | (lo - w_hi) % 2**64)
        assert _masked_hash(narrow_entry.key, narrow) == _masked_hash(wide_entry.key, wide)
        assert _masked_hash(collider.values, wide) == _masked_hash(wide_entry.key, wide)
        assert collider.masked(wide) != wide_entry.key

        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        tss._acc_grow(2)  # issue the salts, then make them equal
        tss._acc_salt_buffer[1] = tss._acc_salt_buffer[0]
        tss.insert(narrow_entry)
        tss.insert(wide_entry)
        keys = [
            FlowKey.from_values(narrow_entry.key),
            FlowKey.from_values(wide_entry.key),
            collider,
        ]
        want = [(narrow_entry, 1), (wide_entry, 2), (None, 2)]
        assert [tuple(r) for r in lookup_batch(tss, keys)] == want
        assert len(set(tss._acc_compounds.tolist())) == 1  # one shared compound
        tss.clear_memo()
        assert [tuple(tss.lookup(key)) for key in keys] == want


class TestStaleSlot:
    """Entries the index still holds but the dicts no longer do (the "stale
    accelerator" the dicts-are-truth invariant rules out).  A plan hit is
    final, so only ``check_invariants`` can see them — and must: on a plan
    built before the deletion (its hit against the dicts), and on every
    later plan (the slot table against the dicts)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("stale", [1, 2, 17, 20])
    def test_entry_deleted_behind_the_index_is_caught(self, kernel, stale):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        entries = [_filter_entry(n) for n in range(24)]
        for entry in entries:
            tss.insert(entry)
        keys = [FlowKey.from_values(entry.key) for entry in entries]
        scanner = tss.batch_scanner(keys)
        assert scanner.result(0).entry is entries[0]
        for victim in entries[1 : 1 + stale]:  # behind the index
            del tss._tables[victim.mask][victim.key]
        assert not tss._acc_dirty
        with pytest.raises(CacheInvariantError, match="not the dicts' entry"):
            scanner.hits(1, len(keys))
        with pytest.raises(CacheInvariantError, match="not the dicts'"):
            tss.lookup(keys[-1])  # a live entry's key: the plan itself is refused


# -- the C source ----------------------------------------------------------------
@needs_cffi
class TestCSource:
    def test_compiles_without_warnings(self, tmp_path):
        """Tier-1 turns Python warnings into errors; the C is held to the
        same bar (the kernel itself is built without ``-W`` flags)."""
        source = tmp_path / "tss_scan.c"
        source.write_text(kernel_module._SOURCE)
        compiler = shlex.split(
            os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        )
        done = subprocess.run(
            [*compiler, *kernel_module._COMPILE_ARGS, "-Wall", "-Wextra", "-Werror",
             "-c", str(source), "-o", str(tmp_path / "tss_scan.o")],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_build_removes_superseded_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel_module, "_kernel_cache_dir", lambda: tmp_path)
        dead = tmp_path / "_tss_scan_000000000000.cpython-311-x86_64-linux-gnu.so"
        dead.write_bytes(b"")
        bystander = tmp_path / "unrelated.txt"
        bystander.write_text("kept")
        _, lib = kernel_module._load_cffi_lib()
        assert hasattr(lib, "tss_scan")
        assert not dead.exists() and bystander.exists()
        assert len(list(tmp_path.glob("_tss_scan_*"))) == 1  # the fresh build

    def test_exact_scan_is_clean_under_sanitizers(self, tmp_path):
        """ASan + UBSan over ``tss_scan`` on a synthetic store with equal
        compounds, compounds past the array's last one, an empty compound
        array and a mask count that is not a multiple of ``STRIP`` — every
        array an exact-size heap block, so a read past any end aborts.
        Three mask sides: a uniform column beside a varying one, every
        column uniform (no table read), and five varying columns (the
        runtime column loop); each plan's
        compounds are checked against the multiply hash they tabulate."""
        compiler = shlex.split(
            os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        )
        flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
        probe = tmp_path / "probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        if subprocess.run(
            [*compiler, *flags, str(probe), "-o", str(tmp_path / "probe")],
            capture_output=True,
        ).returncode:
            pytest.skip("the compiler has no sanitizer runtime")
        (tmp_path / "tss_scan.c").write_text(kernel_module._SOURCE)
        (tmp_path / "driver.c").write_text(_SANITIZER_DRIVER)
        built = subprocess.run(
            [*compiler, *flags, str(tmp_path / "driver.c"), "-o", str(tmp_path / "driver")],
            capture_output=True, text=True,
        )
        assert built.returncode == 0, built.stderr
        ran = subprocess.run(
            [str(tmp_path / "driver")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "ASAN_OPTIONS": "detect_leaks=0"},
        )
        assert (ran.returncode, ran.stdout) == (0, "ok\n"), ran.stderr


_SANITIZER_DRIVER = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include "tss_scan.c"

#define N_MASKS 70  /* one full strip of 64, then a tail of 6 */
#define N_KEYS 4
#define MAX_COLS 5  /* active columns 1, 3, ... of a row twice as wide */

static void *block(const void *src, size_t size)
{
    void *dst = malloc(size ? size : 1);
    if (size)
        memcpy(dst, src, size);
    return dst;
}

/* Mask m's value in active column c, by case: 0 -- column 0 takes 8
 * values, column 1 one (a base term and one table read); 1 -- every mask
 * the same (no table read at all); 2 -- five columns of 3-7 values each
 * (the runtime column loop). */
static uint64_t mask_value(int kind, int m, int c)
{
    if (kind == 0)
        return c ? 0xFFFF : ~0ull << (m % 8);
    if (kind == 1)
        return c ? 0xFFFF : ~0ull << 4;
    return ~0ull << ((m + c) % (3 + c));
}

/* The multiply hash the tabulated one must reproduce, term for term. */
static uint64_t hash(const uint64_t *key, const uint64_t *mask, const uint64_t *w, int n_cols)
{
    uint64_t acc = 0;
    for (int c = 0; c < n_cols; c++)
        acc += (key[c] & mask[c]) * w[c];
    return acc;
}

/* One plan of case `kind` over heap copies of everything, the mask side
 * encoded as kernel.py encodes it; nonzero when it is not `want`. */
static int plan(int kind, int n_cols, const uint64_t *keys, const uint64_t *masks,
                const uint64_t *w, const uint64_t *salts, const uint8_t *filt,
                size_t filt_size, const uint64_t *comps, const int64_t *comp_slots,
                int64_t n_comps, const uint64_t *slot_rows, const int64_t *slot_masks,
                const int64_t *want_first, const int64_t *want_slot)
{
    int64_t active[MAX_COLS], base[MAX_COLS];
    uint64_t terms[3 * N_MASKS * MAX_COLS];  /* (column, value, weight) rows */
    uint32_t codes[N_MASKS * MAX_COLS];
    int64_t n_terms = 0, n_base = 0, n_vary = 0;
    int width = 2 * n_cols;
    for (int c = 0; c < n_cols; c++)
        active[c] = 2 * c + 1;
    /* A term per distinct value of each column: a uniform column's goes in
     * the base, a varying column's masks name theirs in the codes. */
    for (int c = 0; c < n_cols; c++) {
        int64_t first_term = n_terms;
        for (int m = 0; m < N_MASKS; m++) {
            int64_t t = first_term;
            while (t < n_terms && terms[3 * t + 1] != masks[m * n_cols + c])
                t++;
            if (t == n_terms) {
                terms[3 * t] = (uint64_t)c, terms[3 * t + 1] = masks[m * n_cols + c];
                terms[3 * t + 2] = w[c], n_terms++;
            }
            codes[m * MAX_COLS + n_vary] = (uint32_t)t;
        }
        if (n_terms == first_term + 1)
            base[n_base++] = first_term;
        else
            n_vary++;
    }
    for (int m = 0; m < N_MASKS; m++)  /* pack the codes n_vary to a row */
        memmove(codes + m * n_vary, codes + m * MAX_COLS, n_vary * sizeof *codes);
    void *b[] = {
        block(keys, N_KEYS * n_cols * 8), block(masks, N_MASKS * n_cols * 8),
        block(active, n_cols * 8), block(salts, N_MASKS * 8),
        block(codes, N_MASKS * n_vary * 4), block(terms, 3 * n_terms * 8),
        block(base, n_base * 8), block(filt, filt_size), block(comps, n_comps * 8),
        block(comp_slots, n_comps * 8), block(slot_rows, 3 * width * 8),
        block(slot_masks, 3 * 8), malloc(N_KEYS * 8), malloc(N_KEYS * 8),
    };
    const struct mask_side side = {b[1], b[2], b[3], b[4], b[5], b[6],
                                   N_MASKS, n_cols, n_terms, n_base, n_vary};
    int bad = tss_scan(b[0], N_KEYS, &side, b[7], 48, b[8], b[9], n_comps, b[10],
                       b[11], width, b[12], b[13]) != 0;
    bad |= memcmp(b[12], want_first, N_KEYS * 8) || memcmp(b[13], want_slot, N_KEYS * 8);
    bad |= (kind == 0) != (n_base == 1 && n_vary == 1);
    bad |= (kind == 1) != (n_vary == 0);
    bad |= (kind == 2) != (n_vary == 5);
    for (size_t i = 0; i < sizeof b / sizeof b[0]; i++)
        free(b[i]);
    return bad;
}

/* Case `kind` with `n_cols` active columns: a plan that finds each of
 * three entries, then one over an empty compound array. */
static int scan_case(int kind, int n_cols)
{
    const uint64_t w[MAX_COLS] = {0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full,
                                  0x165667B19E3779F9ull, 0x27D4EB2F165667C5ull,
                                  0xFF51AFD7ED558CCDull};
    /* Slot s indexes key s under mask slot_masks[s], at compound comps[s]:
     * slots 0 and 1 share one; every other probe lands past the last.  The
     * last key matches no entry. */
    const int64_t slot_masks[3] = {5, 69, 64};
    const uint64_t comps[3] = {10, 10, 20};
    const int64_t comp_slots[3] = {0, 1, 2};
    const int64_t first[N_KEYS] = {5, 69, 64, -1}, slot[N_KEYS] = {0, 1, 2, -1};
    const int64_t none[N_KEYS] = {-1, -1, -1, -1};
    uint64_t keys[N_KEYS * MAX_COLS], masks[N_MASKS * MAX_COLS], salts[N_MASKS];
    uint64_t slot_rows[3 * 2 * MAX_COLS] = {0};
    uint8_t filt[1 << 13];  /* 2**16 one-bit slots (shift 48), all set */
    int width = 2 * n_cols, bad;
    memset(filt, 0xFF, sizeof filt);
    for (int k = 0; k < N_KEYS; k++)
        for (int c = 0; c < n_cols; c++)
            keys[k * n_cols + c] = (uint64_t)(k + 1) << 56 | (uint64_t)(c + 1) * 0x10203;
    for (int m = 0; m < N_MASKS; m++) {
        for (int c = 0; c < n_cols; c++)
            masks[m * n_cols + c] = mask_value(kind, m, c);
        salts[m] = 0x5DEECE66Dull * (uint64_t)(m + 1);
    }
    for (int s = 0; s < 3; s++) {
        const uint64_t *mask = masks + slot_masks[s] * n_cols;
        for (int c = 0; c < n_cols; c++)
            slot_rows[s * width + 2 * c + 1] = keys[s * n_cols + c] & mask[c];
        salts[slot_masks[s]] = hash(keys + s * n_cols, mask, w, n_cols) ^ comps[s];
    }
    bad = plan(kind, n_cols, keys, masks, w, salts, filt, sizeof filt, comps,
               comp_slots, 3, slot_rows, slot_masks, first, slot);
    bad |= plan(kind, n_cols, keys, masks, w, salts, filt, sizeof filt, comps,
                comp_slots, 0, slot_rows, slot_masks, none, none);
    return bad;
}

int main(void)
{
    int bad = scan_case(0, 2) | scan_case(1, 2) | scan_case(2, 5);
    puts(bad ? "mismatch" : "ok");
    return bad;
}
"""


class TestSelection:
    def test_registry_names(self):
        names = scan_kernel_names()
        assert names[0] == "auto"
        assert {"numpy", "cffi"} <= set(names)

    def test_auto_resolution(self):
        resolved = resolve_scan_kernel_name("auto")
        assert resolved == ("cffi" if CFFI_AVAILABLE else "numpy")
        assert make_scan_kernel("auto").name == resolved

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ClassifierError, match="known: auto, cffi, numpy"):
            make_scan_kernel("turbo")

    def test_forced_numpy_fallback(self, monkeypatch):
        monkeypatch.setenv(FORCE_NUMPY_ENV, "1")
        assert resolve_scan_kernel_name("auto") == "numpy"
        assert make_scan_kernel("auto").name == "numpy"
        with pytest.raises(RuntimeError):
            make_scan_kernel("cffi")

    def test_tss_reports_kernel_name(self):
        tss = TupleSpaceSearch(scan_kernel="numpy")
        assert tss.scan_kernel_name == "numpy"
        auto = TupleSpaceSearch()
        assert auto.scan_kernel_name == resolve_scan_kernel_name("auto")

    @needs_cffi
    def test_explicit_cffi_selection(self):
        assert TupleSpaceSearch(scan_kernel="cffi").scan_kernel_name == "cffi"


class TestLayout:
    def test_column_round_trip(self):
        key = FlowKey(
            ip_src=0x0A0B0C0D,
            tp_dst=443,
            ipv6_src=(1 << 127) | 0xDEADBEEF,  # exercises the hi/lo split
        )
        matrix = to_column_matrix([key.values])
        assert matrix.shape == (1, N_COLUMNS)
        assert _from_columns(matrix[0]) == key.values

    def test_a_field_set_converts_only_its_columns(self):
        values = [FlowKey(ip_src=0x0A0B0C0D, tp_dst=443, ipv6_src=(1 << 127) | 0xDEADBEEF).values]
        full = to_column_matrix(values)
        fields = [FIELD_ORDER.index("ipv6_src"), FIELD_ORDER.index("tp_dst")]
        kept = [column for column, (index, _) in enumerate(COLUMN_SPLITS) if index in fields]
        part = to_column_matrix(values, fields)
        assert len(kept) == 3 and (part[:, kept] == full[:, kept]).all()
        assert not np.delete(part, kept, axis=1).any()
        assert not to_column_matrix(values, []).any()
