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
must fall below half of ``cost_threshold`` before the trigger re-arms — a
cache that stays expensive after migrating must not flap) and a per-shard
cooldown between swaps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decision import Decision
from repro.core.mitigation import MFCGuard
from repro.exceptions import ExperimentError, ReproError
from repro.switch.datapath import ShardSnapshot
from repro.switch.sharded import AnyDatapath

__all__ = ["MigrationPolicy", "MigrationController"]

#: The backend a migration rebuilds into.
_TARGET_BACKEND = "tuplechain"
#: After a swap a shard re-arms once its cost falls below this fraction of
#: ``cost_threshold``.
_HYSTERESIS = 0.5


@dataclass(frozen=True)
class MigrationPolicy:
    """When and how to migrate a shard's megaflow backend.

    The rebuild target is always ``tuplechain`` (scan cost sublinear in
    the mask count), and a co-deployed MFCGuard always gets its
    chain-aware stand-down armed at ``cost_threshold`` (hybrid mode).

    Attributes:
        cost_threshold: expected full-scan cost (normalised probe units)
            at which a shard's migration triggers.  Well above any benign
            mask count and well below a detonated staircase (the 8k
            SipSpDp detonation scans at ~8,200 units on TSS).
        cooldown: minimum seconds between swaps of the same shard.
        slice_entries: snapshot entries copied per controller tick while a
            rebuild is in flight (bounds per-tick maintenance work; the
            hot path serves from the old backend between slices).
        period: seconds between controller runs (``tick`` cadence).
    """

    cost_threshold: float = 512.0
    cooldown: float = 30.0
    slice_entries: int = 4096
    period: float = 0.5

    def __post_init__(self) -> None:
        if self.cost_threshold <= 0:
            raise ExperimentError("cost_threshold must be positive")
        if self.cooldown < 0:
            raise ExperimentError("cooldown must be >= 0")
        if self.slice_entries <= 0:
            raise ExperimentError("slice_entries must be positive")
        if self.period <= 0:
            raise ExperimentError("period must be positive")


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
        guard: a co-deployed MFCGuard; its chain-aware stand-down is
            armed at ``cost_threshold`` (hybrid mode — see the module
            docstring).
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
        if guard is not None:
            guard.stand_down_at(self.policy.cost_threshold)
        self._next_run = self.policy.period
        self._cooldown_until: dict[int, float] = {}
        self._armed: dict[int, bool] = {}

    # -- scheduling -----------------------------------------------------------
    def tick(self, now: float) -> tuple[Decision, ...]:
        """Run the controller if its cadence has elapsed; ``()`` if not."""
        if now < self._next_run:
            return ()
        self._next_run = now + self.policy.period
        return self.run(now)

    # -- one pass ---------------------------------------------------------------
    def run(self, now: float) -> tuple[Decision, ...]:
        """One controller pass, serialised against in-flight shard batches.

        Answers with a ``start`` or ``step`` decision per shard it advanced
        (``changed``: the entries that slice copied) and a ``swap`` per
        shard it swapped, or with one ``hold`` carrying the worst scan cost.
        A rebuild that fails is aborted on its shard and the error
        re-raised: the raise is that pass's record.
        """
        with self.datapath.maintenance():
            return self._run_locked(now)

    def _run_locked(self, now: float) -> tuple[Decision, ...]:
        policy = self.policy
        decisions: list[Decision] = []
        worst = 0.0
        for shard_id, shard in enumerate(self.datapath.shards):
            before = shard.snapshot()
            worst = max(worst, before.scan_cost)
            signals = {"scan_cost": before.scan_cost}
            try:
                if before.migration == "rebuilding":
                    action = "step"
                elif self._should_start(shard_id, before, now):
                    action = "start"
                    shard.migrate_backend_start(
                        _TARGET_BACKEND, slice_size=policy.slice_entries
                    )
                else:
                    continue
                snapshot = shard.migrate_backend_step(policy.slice_entries)
                copied = snapshot.entries_copied - before.entries_copied
                decisions.append(
                    Decision(now, "migration", action, shard_id, signals, copied, snapshot.target)
                )
                if snapshot.rebuild_done:
                    shard.migrate_backend_swap()
                    decisions.append(
                        Decision(now, "migration", "swap", shard_id, signals, 0, snapshot.target)
                    )
                    self._cooldown_until[shard_id] = now + policy.cooldown
                    self._armed[shard_id] = False
            except ReproError:
                # Left attached, a rebuild that diverged from the truth
                # store would fail the same swap on every later pass.
                shard.migrate_backend_abort()
                raise
        return tuple(decisions) or (
            Decision(now, "migration", "hold", None, {"scan_cost": worst}),
        )

    def _should_start(self, shard_id: int, snapshot: ShardSnapshot, now: float) -> bool:
        policy = self.policy
        cost = snapshot.scan_cost
        # Hysteresis: a shard that swapped re-arms only once its cost has
        # genuinely collapsed — otherwise a still-expensive cache would
        # re-trigger every cooldown.
        if not self._armed.get(shard_id, True):
            if cost < policy.cost_threshold * _HYSTERESIS:
                self._armed[shard_id] = True
            else:
                return False
        if snapshot.backend == _TARGET_BACKEND:
            return False
        if now < self._cooldown_until.get(shard_id, float("-inf")):
            return False
        return cost >= policy.cost_threshold
