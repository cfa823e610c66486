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

import os
import shlex
import subprocess
import sysconfig

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.actions import ALLOW
from repro.classifier.backend import MegaflowEntry
from repro.classifier import kernel as kernel_module
from repro.classifier.flowtable import FlowTable
from repro.classifier.kernel import (
    FORCE_NUMPY_ENV,
    N_COLUMNS,
    CffiScanPlan,
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
from repro.packet.fields import FIELDS, FlowKey, FlowMask
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


# -- every unrolled hash width -------------------------------------------------
# Mask families by active column count (an IPv6 address is two columns).  A
# family's masks differ in the first field's prefix length -- always >= 8
# bits, and every entry gets its own top byte there, so entries are pairwise
# disjoint -- and match the other fields exactly.  The C strip hash has a
# constant-trip branch for 1-4 columns and a runtime loop for the rest.
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
        """0-4 active columns take the constant-width C branches, 6 the
        generic loop: hits at every mask, misses and shuffled orders agree
        across kernels and with the sequential scan."""
        entries, probes = _width_family(_WIDTH_FAMILIES[width])
        tss = TupleSpaceSearch(scan_kernel="numpy")
        for entry in entries:
            tss.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=ALLOW))
        results = tss.lookup_batch(probes)
        assert len(tss._scan_operands().active) == width
        assert {r.masks_inspected for r in results if r.hit} == set(
            range(1, tss.n_masks + 1)
        )
        assert width == 0 or any(not r.hit for r in results)
        reference = _drive_sequential(entries, probes, shuffle_seed=2)
        for kernel in KERNELS:
            assert _drive(kernel, entries, probes, 2) == reference, kernel


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


# -- the failed-confirm resume walk ----------------------------------------------
_NESTED = 20  # prefix lengths 8..27 of one ip_src, all covering one key
_NESTED_KEY = FlowKey(ip_src=0x0A141E28, tp_dst=80)
_WALL = 70  # unrelated masks between nested levels 16 and 17: > one C strip
_UNRELATED_KEY = FlowKey(ip_src=0xC0A80001, ip_dst=0xAC100001, tp_dst=443)


def _nested_store(kernel: str):
    """``_NESTED`` overlapping entries, one per mask in prefix order, that
    all cover ``_NESTED_KEY`` -- plus a disjoint filler per mask, so a mask
    outlives the removal of its nested entry.  A wall of masks that never
    match the key sits behind level ``MAX_HITS``: the fetch that resumes
    there crosses a strip boundary before it finds the next level."""
    tss = TupleSpaceSearch(scan_kernel=kernel)  # check_invariants off: overlap
    nested_masks = [
        FlowMask(ip_src=_prefix(8 + level), tp_dst=0xFFFF) for level in range(_NESTED)
    ]
    wall = [
        FlowMask(ip_src=_prefix(src_bits), ip_dst=_prefix(dst_bits), tp_dst=0xFFFF)
        for src_bits in (0, 8, 16)
        for dst_bits in range(1, 25)
    ][:_WALL]
    split = CffiScanPlan.MAX_HITS + 1
    for mask in nested_masks[:split] + wall + nested_masks[split:]:
        tss.insert(
            MegaflowEntry(mask=mask, key=_UNRELATED_KEY.masked(mask), action=ALLOW)
        )
    nested = [
        tss.insert(MegaflowEntry(mask=mask, key=_NESTED_KEY.masked(mask), action=ALLOW))
        for mask in nested_masks
    ]
    tss.lookup_batch([_UNRELATED_KEY])  # the index is built, and holds them all
    return tss, nested


class TestStaleCandidateWalk:
    """A candidate the index still holds but the truth dicts no longer do
    (the dicts-are-truth invariant's "stale accelerator" case) fails its
    confirm; ``ScanPlan.next_hit`` must then walk to the next live one."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("stale", [1, 2, CffiScanPlan.MAX_HITS + 1, _NESTED])
    def test_walk_past_stale_candidates(self, kernel, stale):
        subject, nested = _nested_store(kernel)
        twin, twin_nested = _nested_store("numpy")
        for entry in nested[:stale]:  # behind the index: no invalidation
            del subject._tables[entry.mask][subject._reduce(entry.mask, entry.key)]
        assert not subject._acc_dirty
        for entry in twin_nested[:stale]:  # the honest way
            assert twin.remove(entry)
        assert subject.masks() == twin.masks()

        (got,) = subject.lookup_batch([_NESTED_KEY], now=1.0)
        want = twin.lookup(_NESTED_KEY, now=1.0)
        assert _summarise(got) == _summarise(want)
        if stale == _NESTED:
            assert not got.hit and got.masks_inspected == _NESTED + _WALL
        else:
            assert got.entry is nested[stale]
            assert got.masks_inspected == stale + 1 + (_WALL if stale > 16 else 0)
        assert (subject.stats_hits, subject.stats_misses, subject.stats_scan_probes) == (
            twin.stats_hits, twin.stats_misses, twin.stats_scan_probes
        )


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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_false_negatives_across_growth(self, kernel):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        entries = [_filter_entry(n) for n in range(1100)]
        keys = [FlowKey.from_values(entry.key) for entry in entries]
        tss.insert(entries[0])
        tss.lookup_batch(keys[:1])  # builds the accelerator; inserts index from here
        start = _filter_log2(tss)

        # Per-entry appends, up to the first growth threshold with the last
        # 63 of them still pending ...
        for entry in entries[1:256]:
            tss.insert(entry)
        assert len(tss._acc_pending) == 63 and _filter_log2(tss) == start
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
        results = tss.lookup_batch(keys)  # _check_filter on every plan
        assert [r.entry for r in results] == entries

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stale_filter_is_caught(self, kernel):
        tss = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
        tss.insert(_entry(0, 1, 2, 3))
        probe = [FlowKey(ip_src=9, tp_dst=9)]
        tss.lookup_batch(probe)
        slot = int(tss._acc_compounds[0]) >> tss._acc_filter_shift
        tss._acc_filter[slot >> 3] &= ~(1 << (slot & 7)) & 0xFF
        tss.clear_memo()
        with pytest.raises(CacheInvariantError):
            tss.lookup_batch(probe)


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
        assert hasattr(lib, "tss_scan_first")
        assert not dead.exists() and bystander.exists()
        assert len(list(tmp_path.glob("_tss_scan_*"))) == 1  # the fresh build


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
