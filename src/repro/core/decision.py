"""The one record every defense controller answers with.

MFCGuard, the migration controller and the RSS rebalancer each return,
from ``run()`` and ``tick()``, the tuple of :class:`Decision` records that
pass made: one per thing it changed, or exactly one (a ``hold``, or the
guard's ``stand_down``) when it changed nothing.  An off-cadence ``tick``
returns ``()``.  The hypervisor keeps
them in order in ``HypervisorHost.decisions``, the event log of every
controller decision.  Every signal is a value the controller already read,
so keeping the log costs no datapath read.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Decision"]


class Decision(NamedTuple):
    """One controller decision.

    Attributes:
        at: the simulated time of the pass.
        controller: ``"mfcguard"``, ``"migration"`` or ``"rebalance"``.
        action: what the pass did — ``clean`` / ``stop_cpu`` /
            ``stand_down`` (guard), ``start`` / ``step`` / ``swap``
            (migration), ``rekey`` / ``reta`` (rebalancer), or ``hold``.
        shard: the shard acted on, or ``None`` for the whole datapath.
        signals: the values the controller compared against its
            thresholds, by name.
        changed: entries deleted (guard), copied (migration) or moved
            (rebalancer).
        subject: the rule cleaned, the target backend, or the new salt /
            RETA; ``None`` when there is none.
    """

    at: float
    controller: str
    action: str
    shard: int | None
    signals: dict[str, float]
    changed: int = 0
    subject: object = None
