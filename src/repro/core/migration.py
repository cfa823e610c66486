"""Cost-plane-driven live backend migration (ROADMAP item 3).

PR 4's probe-cost plane made the tuple-space-explosion attack *visible* as
a number: a detonated TSS shard's ``expected_scan_cost`` explodes with the
mask count while a grouped backend's stays near its pre-attack level — a
~600× victim-floor gap under the same 8k-mask detonation.  This module
turns that gap into an *online* defense: when a shard's expected scan cost
crosses a threshold,
:class:`MigrationController` rebuilds that shard's megaflow cache as the
cheap-to-scan target backend in the background (bounded slices through
:class:`~repro.classifier.backend.BackendRebuild`, the truth-store dicts
as the rebuild contract) and atomically swaps it in under the datapath's
maintenance lock.

Three policies, compared by the ``migrationsweep`` experiment:

* **MFCGuard-only** — §8's eviction daemon keeps deleting adversarial
  entries; the cache stays TSS and every deletion costs permanent
  slow-path demotion.
* **migration-only** — no deletions; the victim stays floored until the
  rebuild finishes, then recovers fully with zero entries dropped.
* **hybrid** — MFCGuard holds the line while the rebuild races.  Realised
  with no extra mechanism: the controller arms the guard's chain-aware
  ``probe_cost_threshold`` (:meth:`~repro.core.mitigation.MFCGuard.stand_down_at`)
  at the migration trigger threshold, so the guard cleans while the TSS
  scan cost is exploded and stands down by itself the moment the swapped
  backend collapses the cost.

A rebuild that fails mid-protocol (a step or the swap raises) is aborted
on its shard before the error propagates, so the old backend keeps
serving with no rebuild attached.

Trigger discipline: threshold with hysteresis (after a swap the shard
must fall below ``cost_threshold * hysteresis`` before the trigger
re-arms — a cache that stays expensive after migrating must not flap) and
a per-shard cooldown between swaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mitigation import MFCGuard
from repro.exceptions import ExperimentError, ReproError
from repro.switch.datapath import ShardSnapshot
from repro.switch.sharded import AnyDatapath

__all__ = ["MigrationPolicy", "MigrationReport", "MigrationController"]


@dataclass(frozen=True)
class MigrationPolicy:
    """When and how to migrate a shard's megaflow backend.

    Attributes:
        target_backend: name of the backend to rebuild into
            (``"tuplechain"`` — scan cost sublinear in the mask count).
        cost_threshold: expected full-scan cost (normalised probe units)
            at which a shard's migration triggers.  Well above any benign
            mask count and well below a detonated staircase (the 8k
            SipSpDp detonation scans at ~8,200 units on TSS).
        hysteresis: re-arm fraction — after a swap the shard's cost must
            drop below ``cost_threshold * hysteresis`` before the trigger
            re-arms (no flapping on a cache that stays expensive).
        cooldown: minimum seconds between swaps of the same shard.
        slice_entries: snapshot entries copied per controller tick while a
            rebuild is in flight (bounds per-tick maintenance work; the
            hot path serves from the old backend between slices).
        period: seconds between controller runs (``tick`` cadence).
        stand_down_guard: arm a co-deployed MFCGuard's chain-aware
            stand-down at ``cost_threshold`` (hybrid mode).
    """

    target_backend: str = "tuplechain"
    cost_threshold: float = 512.0
    hysteresis: float = 0.5
    cooldown: float = 30.0
    slice_entries: int = 4096
    period: float = 0.5
    stand_down_guard: bool = True

    def __post_init__(self) -> None:
        if self.cost_threshold <= 0:
            raise ExperimentError("cost_threshold must be positive")
        if not 0 < self.hysteresis <= 1:
            raise ExperimentError("hysteresis must be in (0, 1]")
        if self.cooldown < 0:
            raise ExperimentError("cooldown must be >= 0")
        if self.slice_entries <= 0:
            raise ExperimentError("slice_entries must be positive")
        if self.period <= 0:
            raise ExperimentError("period must be positive")


@dataclass
class MigrationReport:
    """What one controller run did; ``statuses`` holds each checked
    shard's snapshot after the run acted on it."""

    ran: bool = False
    checked: int = 0
    worst_scan_cost: float = 0.0
    started: tuple[int, ...] = ()
    stepped: tuple[int, ...] = ()
    swapped: tuple[int, ...] = ()
    statuses: list[ShardSnapshot] = field(default_factory=list)


class MigrationController:
    """The migration daemon: watches the cost plane, rebuilds, swaps.

    Wired next to MFCGuard in the hypervisor's maintenance cadence
    (``HypervisorHost(migrator=...)``); drives plain and sharded datapaths
    uniformly through the ``migrate_backend_*`` surface, so under the
    ``process`` executor each shard's rebuild runs inside its owning
    worker via the control pipe — entry objects never cross the boundary;
    each call answers with the shard's
    :class:`~repro.switch.datapath.ShardSnapshot`, which the controller
    reads by attribute.

    Args:
        datapath: the switch to watch (plain or sharded).
        policy: thresholds and cadence (defaults to :class:`MigrationPolicy`).
        guard: a co-deployed MFCGuard; with ``policy.stand_down_guard``
            its chain-aware stand-down is armed at ``cost_threshold``
            (hybrid mode — see the module docstring).
    """

    def __init__(
        self,
        datapath: AnyDatapath,
        policy: MigrationPolicy | None = None,
        guard: MFCGuard | None = None,
    ):
        self.datapath = datapath
        self.policy = policy or MigrationPolicy()
        self.guard = guard
        if guard is not None and self.policy.stand_down_guard:
            guard.stand_down_at(self.policy.cost_threshold)
        self._next_run = self.policy.period
        self._cooldown_until: dict[int, float] = {}
        self._armed: dict[int, bool] = {}
        self.migrations_completed = 0
        self.runs = 0

    # -- scheduling -----------------------------------------------------------
    def tick(self, now: float) -> MigrationReport:
        """Run the controller if its cadence has elapsed."""
        if now < self._next_run:
            return MigrationReport(ran=False)
        self._next_run = now + self.policy.period
        return self.run(now)

    # -- one pass ---------------------------------------------------------------
    def run(self, now: float) -> MigrationReport:
        """One controller pass, serialised against in-flight shard batches."""
        with self.datapath.maintenance():
            return self._run_locked(now)

    def _run_locked(self, now: float) -> MigrationReport:
        self.runs += 1
        policy = self.policy
        report = MigrationReport(ran=True)
        started: list[int] = []
        stepped: list[int] = []
        swapped: list[int] = []
        for shard_id, shard in enumerate(self.datapath.shards):
            snapshot = shard.snapshot()
            report.checked += 1
            report.worst_scan_cost = max(report.worst_scan_cost, snapshot.scan_cost)
            try:
                if snapshot.migration == "rebuilding":
                    snapshot = shard.migrate_backend_step(policy.slice_entries)
                    stepped.append(shard_id)
                elif self._should_start(shard_id, snapshot, now):
                    snapshot = shard.migrate_backend_start(
                        policy.target_backend, slice_size=policy.slice_entries
                    )
                    started.append(shard_id)
                    snapshot = shard.migrate_backend_step(policy.slice_entries)
                if snapshot.migration == "rebuilding" and snapshot.rebuild_done:
                    snapshot = shard.migrate_backend_swap()
                    swapped.append(shard_id)
                    self._cooldown_until[shard_id] = now + policy.cooldown
                    self._armed[shard_id] = False
                    self.migrations_completed += 1
            except ReproError:
                # Left attached, a rebuild that diverged from the truth
                # store would fail the same swap on every later pass.
                shard.migrate_backend_abort()
                raise
            report.statuses.append(snapshot)
        report.started = tuple(started)
        report.stepped = tuple(stepped)
        report.swapped = tuple(swapped)
        return report

    def _should_start(self, shard_id: int, snapshot: ShardSnapshot, now: float) -> bool:
        policy = self.policy
        cost = snapshot.scan_cost
        # Hysteresis: a shard that swapped re-arms only once its cost has
        # genuinely collapsed — otherwise a still-expensive cache would
        # re-trigger every cooldown.
        if not self._armed.get(shard_id, True):
            if cost < policy.cost_threshold * policy.hysteresis:
                self._armed[shard_id] = True
            else:
                return False
        if snapshot.backend == policy.target_backend:
            return False
        if now < self._cooldown_until.get(shard_id, float("-inf")):
            return False
        return cost >= policy.cost_threshold
