"""Traffic sources: attack replay, random floods, iperf-like victim flows.

Attack sources inject *real* packets into the hypervisor's datapath — at
the paper's attack rates (100–2000 pps) that is cheap enough to simulate
per packet, and it is what makes the mask counts genuine.  Each tick's due
attack packets reach the datapath as one burst.  Victim flows operate in
the hybrid mode described in DESIGN.md: a few keepalive packets per tick
hold their cache entries, while their rate follows the capacity the
hypervisor assigns (TCP ramps toward it, UDP jumps to it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import SimulationError
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.fields import FlowKey
from repro.switch.rss import RetargetReport, retarget_trace

__all__ = [
    "ActiveWindow",
    "AttackSource",
    "VictimFlow",
    "queue_aware_trace",
]

RAMP_TAU = 2.0  # seconds: a TCP victim's exponential-ramp time constant


def queue_aware_trace(
    host: HypervisorHost,
    keys: Sequence[FlowKey],
    plan: int | str | Callable[[int, FlowKey], int],
) -> tuple[list[FlowKey], RetargetReport]:
    """Craft a queue-aware variant of an attack trace for ``host``.

    On a sharded host, packets dispatch to PMD cores via RSS; because the
    attacker controls its packets' 5-tuples, it can grind the bits its
    megaflows wildcard until the hash lands where it wants (see
    :func:`repro.switch.rss.retarget_trace` — the crafted variant detonates
    the identical tuple space).  ``plan`` is either a queue index
    (concentrate the explosion on one core), ``"spread"`` (round-robin
    across all cores), or a callable ``(index, key) -> queue``.  On an
    unsharded host the trace is returned unchanged.
    """
    datapath = host.datapath
    dispatcher = getattr(datapath, "rss", None)
    if dispatcher is None or datapath.n_shards == 1:
        return list(keys), RetargetReport(already_on_target=len(keys))
    queue_for: Callable[[int, FlowKey], int]
    if plan == "spread":
        def queue_for(i, _key):
            return i % dispatcher.n_queues
    elif isinstance(plan, int):
        def queue_for(_i, _key):
            return plan
    elif callable(plan):
        queue_for = plan
    else:
        raise SimulationError(f"unknown queue plan {plan!r}")
    return retarget_trace(
        keys,
        datapath.flow_table,
        dispatcher,
        queue_for,
        strategy=datapath.config.strategy,
    )


@dataclass(frozen=True)
class ActiveWindow:
    """A half-open activity interval [start, stop)."""

    start: float
    stop: float

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise SimulationError(f"empty window [{self.start}, {self.stop})")

    def contains(self, time: float) -> bool:
        return self.start <= time < self.stop


class AttackSource:
    """Replays an adversarial trace at a fixed packet rate.

    Each tick's due packets are injected as one burst through
    :meth:`HypervisorHost.inject_attack_batch` (100 or 200 packets a tick
    in Fig. 8c; no call on a tick where none is due).  The burst size is
    not observable: the batched datapath is per-key equivalent to
    one-packet injection, and each packet is charged at the probe cost
    its core reported before it ran.  On a sharded host each burst is
    RSS-partitioned onto PMD shards by the datapath; pass the trace
    through :func:`queue_aware_trace` first to concentrate or spread the
    explosion across queues.

    Args:
        host: the hypervisor under attack.
        keys: the trace (looped when exhausted, like ``tcpreplay --loop``).
        pps: packet rate while active.
        windows: activity intervals; always active when empty.
        name: label for metrics.
        period: tick cadence in seconds (``Simulation.add``
            honours the attribute); the fractional-packet carry keeps the
            injected rate exact at any cadence.  ``None`` ticks at the
            base ``dt``.
    """

    def __init__(
        self,
        host: HypervisorHost,
        keys: Sequence[FlowKey] | Iterable[FlowKey],
        pps: float,
        windows: Sequence[ActiveWindow] = (),
        name: str = "attacker",
        period: float | None = None,
    ):
        if pps < 0:
            raise SimulationError(f"pps must be >= 0, got {pps}")
        self.host = host
        self.pps = pps
        self.windows = tuple(windows)
        self.name = name
        self.period = period
        self.set_trace(keys)
        self._carry = 0.0  # fractional packets across ticks
        self.packets_sent = 0
        self.current_pps = 0.0

    def active(self, now: float) -> bool:
        if not self.windows:
            return True
        return any(window.contains(now) for window in self.windows)

    def set_rate(self, pps: float) -> None:
        """Change the attack rate mid-run (the Fig. 8c escalation)."""
        if pps < 0:
            raise SimulationError(f"pps must be >= 0, got {pps}")
        self.pps = pps

    def set_trace(self, keys: Sequence[FlowKey] | Iterable[FlowKey]) -> None:
        """Swap the replayed trace mid-run (the RSS-aware attacker's move).

        The adversarial game of the ``rsssweep`` experiment: after the
        defender re-keys RSS, the attacker re-grinds its crafting packets
        against the new dispatcher (:func:`~repro.switch.rss.retarget_trace`)
        and swaps the re-targeted trace in here — subsequent bursts replay
        the new keys; packets already injected are history.
        """
        trace = list(keys)
        if not trace:
            raise SimulationError("attack trace is empty")
        self._iter = itertools.cycle(trace)

    def tick(self, now: float, dt: float) -> None:
        if not self.active(now):
            self.current_pps = 0.0
            self._carry = 0.0
            return
        self._carry += self.pps * dt
        to_send = int(self._carry)
        self._carry -= to_send
        if to_send:
            self.host.inject_attack_batch(list(itertools.islice(self._iter, to_send)), now)
        self.packets_sent += to_send
        self.current_pps = to_send / dt if dt else 0.0


class VictimFlow:
    """An iperf-like victim session.

    Args:
        host: the hypervisor carrying the flow.
        name: flow label (metrics key).
        keys: flow keys the victim's packets carry (forward plus optional
            reverse direction) — sent as keepalives each tick.
        offered_gbps: the sender's offered load.
        kind: ``"tcp"`` (ramping, drop-sensitive) or ``"udp"`` (CBR).
        windows: activity intervals.

    A TCP victim ramps with time constant ``RAMP_TAU``.
    """

    def __init__(
        self,
        host: HypervisorHost,
        name: str,
        keys: Sequence[FlowKey],
        offered_gbps: float,
        kind: str = "tcp",
        windows: Sequence[ActiveWindow] = (),
    ):
        if kind not in ("tcp", "udp"):
            raise SimulationError(f"unknown flow kind {kind!r}")
        if offered_gbps <= 0:
            raise SimulationError("offered_gbps must be positive")
        self.host = host
        self.name = name
        self.kind = kind
        self.offered_gbps = offered_gbps
        self.windows = tuple(windows)
        self.rate_gbps = 0.0
        self._was_active = False
        host.register_victim(name, tuple(keys))

    def active(self, now: float) -> bool:
        if not self.windows:
            return True
        return any(window.contains(now) for window in self.windows)

    def tick(self, now: float, dt: float) -> None:
        active = self.active(now)
        if active and not self._was_active:
            self.host.victim_started(self.name, now)
        elif not active and self._was_active:
            self.host.victim_stopped(self.name)
            self.rate_gbps = 0.0
        self._was_active = active
        if not active:
            return
        self.host.keepalive(self.name, now)

    def settle(self, now: float, dt: float) -> None:
        """Update the achieved rate from the host's capacity assignment.

        Must run *after* the host's tick.  TCP converges exponentially
        upward (slow-start/congestion-avoidance abstraction) and collapses
        quickly when capacity disappears; UDP tracks capacity instantly.
        """
        if not self._was_active:
            return
        capacity = min(self.offered_gbps, self.host.victim_rate(self.name))
        if self.kind == "udp":
            self.rate_gbps = capacity
            return
        if capacity < self.rate_gbps:
            # Multiplicative decrease dominates: near-immediate collapse.
            self.rate_gbps = capacity
        else:
            alpha = min(1.0, dt / RAMP_TAU)
            self.rate_gbps += (capacity - self.rate_gbps) * alpha
