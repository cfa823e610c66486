"""MFCGuard: the short-term mitigation of §8 (Algorithm 2).

MFCGuard monitors the megaflow cache every ``period`` seconds (10 s, the
MFC eviction cadence).  When the mask count exceeds ``mask_threshold`` it
scans the flow table for rules whose TSE pattern appears in the cache
(:mod:`repro.core.detector`) and deletes the matching entries — **deny
entries only** (requirement (i) of §8), so traffic the ACL admits keeps its
fast path while adversarial packets are demoted to the slow path.

Deleting has a price: per the documented OVS quirk, deleted megaflows never
re-spark, so every matching packet hits the slow path forever after (the
guard's kills are always permanent, as in the paper's datapath).  The
guard therefore tracks the estimated upcall rate its deletions cause and
stops deleting when the projected slow-path CPU would exceed
``cpu_threshold`` (requirement (ii); Fig. 9c plots this CPU curve).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decision import Decision
from repro.core.detector import find_tse_entries
from repro.exceptions import ExperimentError
from repro.switch.costmodel import slow_path_cpu_pct
from repro.switch.sharded import AnyDatapath

__all__ = ["MFCGuardConfig", "MFCGuard"]


@dataclass(frozen=True)
class MFCGuardConfig:
    """Algorithm 2 inputs.

    Attributes:
        mask_threshold: ``m_th`` — masks tolerated before cleaning starts.
        probe_cost_threshold: ``p_th`` — expected full-scan cost (in the
            backend's normalised probe units) additionally required before
            cleaning starts, or ``None`` to trigger on masks alone (the
            paper's TSS-era behaviour).  Mask count no longer implies scan
            cost on grouped backends: an 8k-mask staircase that a chained
            lookup walks in ~60 probes is not worth the permanent
            slow-path demotion deleting entries costs, so a chain-aware
            deployment sets both thresholds and the guard stands down
            while the probe cost stays low.
        cpu_threshold_pct: ``c_th`` — slow-path CPU budget; deletion stops
            when the projected load reaches it.
        period: seconds between runs (the paper uses 10 s).
    """

    mask_threshold: int = 100
    probe_cost_threshold: float | None = None
    cpu_threshold_pct: float = 90.0
    period: float = 10.0

    def __post_init__(self) -> None:
        if self.mask_threshold < 0:
            raise ExperimentError("mask_threshold must be >= 0")
        if self.probe_cost_threshold is not None and self.probe_cost_threshold < 0:
            raise ExperimentError("probe_cost_threshold must be >= 0")
        if not 0 < self.cpu_threshold_pct <= 1000:
            raise ExperimentError("cpu_threshold_pct out of range")
        if self.period <= 0:
            raise ExperimentError("period must be positive")


class MFCGuard:
    """The monitoring/eviction daemon of §8, bound to one datapath.

    On a sharded (multi-PMD) datapath the guard reads the aggregate
    distinct-mask count (what ``ovs-dpctl show`` reports) and cleans each
    shard's cache in turn — the CPU budget check runs after every rule on
    every shard, since demoted traffic from all cores funnels into the one
    shared slow-path daemon.

    The guard drives caches through the
    :class:`~repro.classifier.backend.MegaflowStore` surface only
    (``entries()`` via the detector, ``kill_entries`` via the datapath), so
    it works unchanged over non-TSS backends — and with
    ``probe_cost_threshold`` set it is *chain-aware*: it reads the worst
    core's expected scan cost in the backend's normalised probe units and
    stands down while an exploded mask count remains cheap to scan,
    because deleting entries buys nothing and costs permanent slow-path
    demotion (§8's requirement (ii) generalised to the probe currency).

    Args:
        datapath: the switch to guard (plain or sharded).
        config: thresholds and cadence.
    """

    def __init__(self, datapath: AnyDatapath, config: MFCGuardConfig | None = None):
        self.datapath = datapath
        self.config = config or MFCGuardConfig()
        self._next_run = self.config.period
        self._demoted_pps = 0.0  # estimated packet rate now pinned to the slow path

    # -- scheduling -----------------------------------------------------------
    def tick(self, now: float) -> tuple[Decision, ...]:
        """Run Algorithm 2 if the 10-second cadence has elapsed; ``()`` if not."""
        if now < self._next_run:
            return ()
        self._next_run = now + self.config.period
        return self.run(now)

    # -- Algorithm 2 ------------------------------------------------------------
    def probe_cost(self) -> float:
        """Worst per-core expected full-scan cost (normalised probe units).

        The chain-aware counterpart of the ``ovs-dpctl`` mask count the
        paper's guard reads: what one scan actually costs on the most
        loaded core, in the backend's own calibrated currency.
        """
        return max(
            shard.megaflows.expected_scan_cost() for shard in self.datapath.shards
        )

    def run(self, now: float) -> tuple[Decision, ...]:
        """One guard pass: check masks (and probe cost), scan rules, delete, watch CPU.

        Answers with a ``clean`` decision per (shard, rule) it cleaned,
        then a ``stop_cpu`` if the slow-path budget ran out, or with one
        ``hold`` (below the mask threshold, or no TSE pattern found) or
        ``stand_down`` (chain-aware: the probe cost is still low).

        Runs under the datapath's maintenance lock: a parallel shard
        executor serialises the pass against in-flight batches, so the
        guard never reads a shard's cache mid-batch (entry copies from
        worker-owned shards are killed by value, like every management
        delete).
        """
        with self.datapath.maintenance():
            return self._run_locked(now)

    def _run_locked(self, now: float) -> tuple[Decision, ...]:
        read = {"masks": self.datapath.n_masks, "probe_cost": self.probe_cost()}
        if read["masks"] <= self.config.mask_threshold:
            return (Decision(now, "mfcguard", "hold", None, read),)
        if (
            self.config.probe_cost_threshold is not None
            and read["probe_cost"] < self.config.probe_cost_threshold
        ):
            # Mask count exploded but scanning it is still cheap (grouped
            # backend): deleting would trade nothing for permanent upcalls.
            return (Decision(now, "mfcguard", "stand_down", None, read),)

        decisions: list[Decision] = []
        for shard_id, shard in enumerate(self.datapath.shards):
            patterns = find_tse_entries(shard.megaflows, self.datapath.flow_table)
            # Patterns overlap (an entry can match several rules' patterns):
            # only the entries an earlier pattern left installed are removed
            # and demoted by this one.
            killed: set[tuple] = set()
            for pattern in patterns:
                # Delete this rule's adversarial entries (drop-only by
                # construction of the detector).
                rate = sum(
                    entry.hits / max(now - entry.created_at, self.config.period)
                    for entry in pattern.entries
                    if (entry.mask, entry.key) not in killed
                )
                deleted = shard.kill_entries(pattern.entries, permanent=True)
                killed.update((entry.mask, entry.key) for entry in pattern.entries)
                self._demoted_pps += rate

                # Line 9-12: re-check CPU after each rule's cleanup.
                cpu = self.projected_cpu_pct()
                signals = {**read, "cpu_pct": cpu}
                rule = pattern.rule.name or repr(pattern.rule.match)
                decisions.append(Decision(now, "mfcguard", "clean", shard_id, signals, deleted, rule))
                if cpu >= self.config.cpu_threshold_pct:
                    decisions.append(Decision(now, "mfcguard", "stop_cpu", shard_id, signals))
                    return tuple(decisions)
        return tuple(decisions) or (Decision(now, "mfcguard", "hold", None, read),)

    # -- cooperation with live backend migration ------------------------------------
    def stand_down_at(self, probe_cost_threshold: float) -> None:
        """Arm the chain-aware stand-down at ``probe_cost_threshold``.

        How the :class:`~repro.core.migration.MigrationController` realises
        hybrid mode with no extra mechanism: while the detonated TSS cache
        keeps the expected scan cost above the threshold the guard cleans
        as usual (holding the line while the rebuild races), and the
        moment the cheap-to-scan backend is swapped in the cost collapses
        below it and the guard stands down on its own.  A deployment that
        already configured ``probe_cost_threshold`` explicitly keeps its
        value.
        """
        if self.config.probe_cost_threshold is None:
            from dataclasses import replace

            self.config = replace(
                self.config, probe_cost_threshold=probe_cost_threshold
            )

    # -- CPU accounting ------------------------------------------------------------
    def projected_cpu_pct(self) -> float:
        """Slow-path CPU implied by the traffic the guard has demoted
        (the Fig. 9c curve)."""
        return slow_path_cpu_pct(self._demoted_pps)

    def note_attack_rate(self, pps: float) -> None:
        """Feed an externally measured demoted-packet rate (simulations
        where entry hit counters are not advanced packet-by-packet)."""
        if pps < 0:
            raise ExperimentError("pps must be >= 0")
        self._demoted_pps = pps
