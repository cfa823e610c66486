"""The Fig. 7 attack-window run, written once.

Every netsim experiment of the paper's headline evidence (Fig. 8a–c, §8)
and of the arXiv:2011.09107 follow-up scenarios is the same shape: a
:class:`~repro.experiments.testbeds.Fig7Testbed` with its victims added,
an attacker replaying a trace inside ``(start, stop)`` windows, and the
victims' rates and the datapath's mask count sampled along the way.  The
tick protocol underneath is ordering-sensitive — the attacker must inject
*before* the hypervisor settles the tick, every victim must
:meth:`~repro.netsim.flows.VictimFlow.settle` *after* it, and samples are
only meaningful after that — so :func:`run_attack_window` is the one place
that wires it; an experiment states what differs (its trace, its windows,
its extra probes, its mid-run events) and reads windows off the recorded
:class:`~repro.netsim.metrics.TimeSeries`.

``examples/colocated_cloud_attack.py`` wires the same protocol by hand on
a bare ``Datacenter`` — it is the walk-through of what this module hides.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from repro.core.tracegen import AdversarialTrace
from repro.experiments.testbeds import Fig7Testbed, build_testbed
from repro.netsim.cloud import EnvironmentProfile
from repro.netsim.cms import PolicyRule
from repro.netsim.flows import ActiveWindow, AttackSource
from repro.netsim.metrics import MetricsCollector
from repro.packet.fields import FlowKey

__all__ = ["run_attack_window", "detonation_testbed", "samples"]

T = TypeVar("T")


def run_attack_window(
    testbed: Fig7Testbed,
    keys: Sequence[FlowKey],
    pps: float,
    windows: Sequence[tuple[float, float]],
    duration: float,
    *,
    sample_every: float | None = None,
    probes: Mapping[str, Callable[[], object]] | None = None,
    events: Callable[[float, AttackSource], None] | None = None,
    readout: Callable[[], T] | None = None,
) -> T | None:
    """Run ``testbed`` for ``duration`` seconds under one windowed attacker.

    The attacker replays ``keys`` at ``pps`` inside each ``(start, stop)``
    of ``windows``.  Per tick, in this order: the victims' keepalives (they
    were registered by ``add_victim_flow``), the attacker, the hypervisor;
    then ``events(now, attacker)`` if given — the place for mid-run moves
    such as installing an ACL, ``attacker.set_rate`` or
    ``attacker.set_trace`` — then every victim settles, then the sample.

    Samples go into ``testbed.metrics``, one series per victim (under the
    flow's name, Gbps) plus ``masks``, ``scan_cost``, ``attacker_pps`` and
    one series per entry of ``probes`` (name -> zero-argument read).  They
    are taken every tick, or — with ``sample_every`` — on every
    ``max(1, round(sample_every / dt))``-th tick, counted from 1 (1 s at
    100 ms ticks samples t = 0.9, 1.9, …).  Nothing is read off the
    datapath between samples.

    ``readout`` runs once after the last tick while the datapath is still
    live (a ``process`` executor's shards are gone after ``close``); its
    value is returned.  The testbed is closed on every exit path.
    """
    simulation, metrics = testbed.simulation, testbed.metrics
    host, datapath, dt = testbed.server.host, testbed.server.datapath, simulation.dt
    probes = probes or {}
    try:
        attacker = AttackSource(
            host, keys, pps, windows=[ActiveWindow(start, stop) for start, stop in windows]
        )
        simulation.add(attacker)  # sources tick before the host settles them
        simulation.add(host)
        sample_ticks = 1 if sample_every is None else max(1, round(sample_every / dt))
        ticks = 0

        def after_tick(now: float) -> None:
            nonlocal ticks
            if events is not None:
                events(now, attacker)
            for victim in testbed.victims:
                victim.settle(now, dt)
            ticks += 1
            if ticks % sample_ticks:
                return
            for victim in testbed.victims:
                metrics.record(victim.name, now, victim.rate_gbps)
            metrics.record("masks", now, datapath.n_masks)
            metrics.record("scan_cost", now, datapath.scan_cost)
            metrics.record("attacker_pps", now, attacker.current_pps)
            for name, read in probes.items():
                metrics.record(name, now, read())

        simulation.observe(after_tick)
        simulation.run(duration)
        return readout() if readout is not None else None
    finally:
        testbed.close()


def samples(metrics: MetricsCollector, *names: str) -> Iterator[tuple]:
    """``(t, value of names[0], value of names[1], …)`` per recorded sample.

    ``list(samples(metrics, "victim", "masks", "scan_cost"))`` is the
    ``series`` the sweep cells return.
    """
    series = [metrics.series(name) for name in names]
    return zip(series[0].times, *(s.values for s in series))


def detonation_testbed(
    environment: EnvironmentProfile,
    rules: list[PolicyRule],
    label: str,
    with_guard: bool = False,
    **victim,
) -> tuple[Fig7Testbed, AdversarialTrace]:
    """The single-victim detonation set-up the backend / policy sweeps share.

    ``environment`` -> testbed -> one flow named ``victim`` offering 10
    Gbps (``**victim`` goes to ``add_victim_flow``) -> the attacker's ACL
    installed and the co-located trace crafted against it.
    """
    testbed = build_testbed(environment, with_guard=with_guard)
    testbed.add_victim_flow("victim", offered_gbps=10.0, **victim)
    return testbed, testbed.attack_trace(rules, label=label)
