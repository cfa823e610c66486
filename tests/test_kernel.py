"""Scan-kernel differential tests: cffi ≡ numpy ≡ sequential dict-truth.

The kernels in :mod:`repro.classifier.kernel` are pure accelerators — they
only *propose* filter-hit candidates, and every candidate is confirmed
against the per-mask dicts — so no kernel choice may ever change a lookup
outcome, a ``masks_inspected`` count, or a statistics counter.  These
tests drive identical install / lookup / shuffle / salt-growth traces
through a numpy-kernel TSS, a cffi-kernel TSS (when the toolchain built
it) and a sequential per-key reference, and require transcript equality.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.actions import ALLOW
from repro.classifier.backend import MegaflowEntry
from repro.classifier.flowtable import FlowTable
from repro.classifier.kernel import (
    FORCE_NUMPY_ENV,
    N_COLUMNS,
    cffi_kernel_available,
    make_scan_kernel,
    resolve_scan_kernel_name,
    row_hash,
    scan_kernel_names,
    to_column_matrix,
    to_columns,
)
from repro.classifier.rule import Match
from repro.classifier.tss import TupleSpaceSearch
from repro.exceptions import CacheInvariantError
from repro.packet.fields import FlowKey, FlowMask
from repro.switch.datapath import Datapath, DatapathConfig

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
    transcript.append([_summarise(r) for r in tss.lookup_batch(probes, now=1.0)])
    for entry in entries[half:]:
        tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=entry.action))
    transcript.append([_summarise(r) for r in tss.lookup_batch(probes, now=2.0)])
    tss.shuffle_masks(seed=shuffle_seed)
    transcript.append([_summarise(r) for r in tss.lookup_batch(probes, now=3.0)])
    transcript.append(
        (tss.stats_hits, tss.stats_misses, tss.stats_scans, tss.stats_scan_probes)
    )
    return tuple(map(tuple, transcript[:-1])) + (transcript[-1],)


def _drive_sequential(entries, probes, shuffle_seed: int) -> tuple:
    """The dict-truth reference: the same trace, one ``lookup`` at a time."""
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
                    assert batched.megaflows.remove(victim)
                    assert twin.megaflows.remove(
                        twin.megaflows.get_entry(victim.mask, victim.key)
                    )
            elif op == "evict":
                clock += 4.0
                assert len(batched.evict_idle(clock)) == len(twin.evict_idle(clock))
            elif op == "flush":
                batched.flush_caches()
                twin.flush_caches()
            else:
                batched.migrate_backend("tss")
                twin.migrate_backend("tss")
        for start in range(0, len(seen), 5):
            burst(range(start, min(start + 5, len(seen))))
        assert batched.megaflows.masks() == twin.megaflows.masks()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stale_operands_are_caught(self, kernel):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        tss.insert(_entry(0, 1, 2, 3))
        probe = [FlowKey(ip_src=9, tp_dst=9)]
        tss.lookup_batch(probe)
        stale = tss._acc_operands
        tss.insert(_entry(1, 4, 5, 6))  # a second mask drops the snapshot
        assert tss._acc_operands is None
        tss._acc_operands = stale
        tss.clear_memo()
        with pytest.raises(CacheInvariantError):
            tss.lookup_batch(probe)


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
        with pytest.raises(KeyError):
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
        row = to_columns(key.values)
        assert row.shape == (N_COLUMNS,)
        matrix = to_column_matrix([key.values])
        assert matrix.shape == (1, N_COLUMNS)
        assert (matrix[0] == row).all()
        assert row_hash(row) == row_hash(matrix[0])
