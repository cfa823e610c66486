"""Skew-driven live RSS rebalancing (ROADMAP item 5).

The RSS-aware attacker of arXiv:2011.09107 grinds the wildcarded 5-tuple
bits of its crafting packets until the NIC's hash lands every one on a
*chosen* queue (:func:`~repro.switch.rss.retarget_trace`), concentrating
the tuple-space explosion on one PMD core and flooring exactly the victims
RSS co-scheduled there.  On the cost plane that attack has a signature the
dilution-aware detector already measures per shard: one core's expected
scan cost explodes while the others stay benign — *skew*.

:class:`RebalanceController` turns the signature into the defense ROADMAP
item 5 calls for: when worst/mean per-shard scan cost skews past a
threshold, it re-keys the RSS hash (a fresh salt — the stand-in for
programming a new Toeplitz key) or rotates the queue-indirection table,
and :meth:`~repro.switch.sharded.ShardedDatapath.rebalance` migrates the
cached flow state to its new home shards live — quiesced under the
maintenance lock, zero entries dropped, dead-entry records carried along.
The attacker's carefully-ground placement is invalidated wholesale; it
must re-grind its whole trace against the new mapping, and every round of
that race costs it the concentration it had built.

Trigger discipline borrows :class:`~repro.core.migration.MigrationController`'s
cost floor (don't churn a benign datapath) and cooldown (a hard minimum
between re-maps — every re-map costs the moved flows their microflow and
memo warmth), but its re-arm rule is deliberately the *opposite* of the
migration controller's.  A backend that stays expensive after a swap means
the swap was the wrong call — hold still.  A placement that re-concentrates
after a re-key means the attacker took its next turn and re-ground the
trace — exactly the signal to re-key again; a defender that waited for the
skew to collapse before re-arming would be permanently disarmed by any
attacker who retargets faster than the load disperses.  So the trigger
re-arms on cooldown expiry alone: the defender gets a move every round of
the game no matter what the attacker does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.switch.rss import RetaDispatcher
from repro.switch.sharded import ShardedDatapath

__all__ = ["RebalancePolicy", "RebalanceReport", "RebalanceController"]

# The golden-ratio increment: successive re-keys get well-separated salts
# deterministically (reproducible runs need the salt sequence fixed).
_SALT_STEP = 0x9E3779B9


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how to re-map RSS.

    Attributes:
        skew_threshold: worst/mean per-shard scan-cost ratio at which a
            re-map triggers.  A benign or evenly-diluted load sits near
            1; a queue-concentrated detonation on a 4-shard datapath
            approaches the shard count.
        cost_floor: minimum worst-shard scan cost (normalised probe
            units) before skew is acted on — an idle datapath can be
            arbitrarily skewed by a handful of entries and must not churn.
        cooldown: minimum seconds between re-maps (a hard rate bound);
            its expiry re-arms the trigger unconditionally — see the
            module docstring for why renewed concentration must re-trigger.
        period: seconds between controller runs (``tick`` cadence).
        mode: ``"rekey"`` derives a fresh salt per re-map (scatters every
            flow); ``"reta"`` rotates the indirection table by one queue
            (shifts whole slot populations — cheaper to model on real
            hardware, weaker against an attacker who can re-grind).
    """

    skew_threshold: float = 3.0
    cost_floor: float = 64.0
    cooldown: float = 5.0
    period: float = 0.5
    mode: str = "rekey"

    def __post_init__(self) -> None:
        if self.skew_threshold < 1:
            raise ExperimentError("skew_threshold must be >= 1")
        if self.cost_floor < 0:
            raise ExperimentError("cost_floor must be >= 0")
        if self.cooldown < 0:
            raise ExperimentError("cooldown must be >= 0")
        if self.period <= 0:
            raise ExperimentError("period must be positive")
        if self.mode not in ("rekey", "reta"):
            raise ExperimentError(f"mode must be 'rekey' or 'reta', got {self.mode!r}")


@dataclass
class RebalanceReport:
    """What one controller run saw and did."""

    ran: bool = False
    worst_cost: float = 0.0
    mean_cost: float = 0.0
    skew: float = 1.0
    remapped: bool = False
    entries_moved: int = 0
    salt: int = 0


class RebalanceController:
    """The rebalancing daemon: watches per-shard skew, re-keys, migrates.

    Wired next to MFCGuard / MigrationController in the hypervisor's
    maintenance cadence (``HypervisorHost(rebalancer=...)``).  Only a
    :class:`~repro.switch.sharded.ShardedDatapath` with more than one
    shard can meaningfully re-map; on a 1-shard datapath every run is a
    no-op by construction (skew is identically 1).

    Args:
        datapath: the sharded switch to watch.
        policy: thresholds and cadence (defaults to :class:`RebalancePolicy`).
    """

    def __init__(self, datapath: ShardedDatapath, policy: RebalancePolicy | None = None):
        self.datapath = datapath
        self.policy = policy or RebalancePolicy()
        self._next_run = self.policy.period
        self._cooldown_until = float("-inf")
        self.remaps_completed = 0
        self.runs = 0

    # -- scheduling -----------------------------------------------------------
    def tick(self, now: float) -> RebalanceReport:
        """Run the controller if its cadence has elapsed."""
        if now < self._next_run:
            return RebalanceReport(ran=False)
        self._next_run = now + self.policy.period
        return self.run(now)

    # -- one pass ---------------------------------------------------------------
    def run(self, now: float) -> RebalanceReport:
        """One controller pass (the re-map itself quiesces the shards)."""
        self.runs += 1
        report = RebalanceReport(ran=True)
        costs = [snapshot.scan_cost for snapshot in self.datapath.core_report()]
        report.worst_cost = max(costs)
        report.mean_cost = sum(costs) / len(costs)
        report.skew = report.worst_cost / report.mean_cost if report.mean_cost else 1.0
        report.salt = getattr(self.datapath.rss, "salt", 0)
        if not self._should_remap(report, now):
            return report
        successor = self._successor()
        report.entries_moved = self.datapath.rebalance(successor)
        self._cooldown_until = now + self.policy.cooldown
        self.remaps_completed += 1
        report.remapped = True
        report.salt = successor.salt
        return report

    def _should_remap(self, report: RebalanceReport, now: float) -> bool:
        policy = self.policy
        if self.datapath.n_shards < 2:
            return False
        # The cooldown is a hard rate bound: nothing re-maps inside it.
        if now < self._cooldown_until:
            return False
        # Time-based re-arm: the cooldown expired.  If the skew is *still*
        # (or again) past threshold, the attacker re-concentrated after our
        # move — re-keying again is the defender's turn in the game, not
        # flapping.  (MigrationController's re-arm rule is the opposite,
        # on purpose: see the module docstring.)
        if report.worst_cost < policy.cost_floor:
            return False
        return report.skew >= policy.skew_threshold

    def _successor(self) -> RetaDispatcher:
        """The dispatcher the next re-map installs."""
        rss = self.datapath.rss
        if not isinstance(rss, RetaDispatcher):
            rss = RetaDispatcher(rss.n_queues, rss.hash_fn)
        if self.policy.mode == "reta":
            rotated = tuple((q + 1) % rss.n_queues for q in rss.reta)
            return rss.with_reta(rotated)
        salt = (rss.salt + _SALT_STEP) & 0xFFFFFFFF or _SALT_STEP
        return rss.with_salt(salt)
