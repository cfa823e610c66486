"""Contract of the one attack-window runner (experiments/scenario.py).

The tick protocol it owns is ordering-sensitive, so the order is pinned
here on logging fakes; that the eight experiments produce the same tables
through it is ``test_golden.py``'s job.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.exceptions import SimulationError
from repro.experiments import backendsweep
from repro.experiments.scenario import run_attack_window, samples
from repro.netsim.engine import Simulation
from repro.netsim.metrics import MetricsCollector
from repro.packet.fields import FlowKey

DT = 0.1


def logging_testbed():
    """A testbed of fakes that append ``(what, now)`` to one shared log."""
    log: list[tuple[str, float]] = []

    class Host:
        def inject_attack_batch(self, batch, now):
            log.append(("attacker", now))

        def tick(self, now, dt):
            log.append(("host", now))

    class Victim:
        name = "victim"
        rate_gbps = 2.5

        def settle(self, now, dt):
            log.append(("settle", now))

    testbed = SimpleNamespace(
        server=SimpleNamespace(host=Host(), datapath=SimpleNamespace(n_masks=7, scan_cost=7.0)),
        simulation=Simulation(dt=DT),
        metrics=MetricsCollector(),
        victims=[Victim()],
        close=lambda: log.append(("close", None)),
    )
    return testbed, log


def run(testbed, duration=1.0, **kwargs):
    return run_attack_window(testbed, [FlowKey()], 10.0, [(0.0, duration)], duration, **kwargs)


def test_order_within_a_tick():
    testbed, log = logging_testbed()
    run(
        testbed,
        probes={"probe": lambda: log.append(("sample", None))},
        events=lambda now, attacker: log.append(("events", now)),
    )
    first_tick = [what for what, now in log[:5]]
    assert first_tick == ["attacker", "host", "events", "settle", "sample"]
    assert log[-1] == ("close", None)
    assert len(testbed.metrics.series("victim")) == 10


def test_events_receives_the_live_attacker():
    testbed, _log = logging_testbed()
    run(testbed, events=lambda now, attacker: attacker.set_rate(50.0 if now >= 0.45 else 10.0))
    pps = testbed.metrics.series("attacker_pps")
    assert pps.at(0.3) == pytest.approx(10.0)
    # A rate set after tick t is what the attacker replays at tick t + dt.
    assert pps.at(0.9) == pytest.approx(50.0)


@pytest.mark.parametrize("sample_every", [None, 0.1, 0.3, 1.0, 0.01])
def test_sample_every_is_the_tick_counter_rule(sample_every):
    testbed, _log = logging_testbed()
    run(testbed, duration=2.0, sample_every=sample_every)
    step = 1 if sample_every is None else max(1, round(sample_every / DT))
    expected = [k * DT for k in range(20) if (k + 1) % step == 0]
    assert testbed.metrics.series("masks").times == expected
    assert [row[0] for row in samples(testbed.metrics, "victim", "scan_cost")] == expected


def test_readout_runs_live_and_close_runs_always():
    testbed, log = logging_testbed()
    assert run(testbed, readout=lambda: log.append(("readout", None)) or "live") == "live"
    assert [what for what, _ in log[-2:]] == ["readout", "close"]

    testbed, log = logging_testbed()
    with pytest.raises(ZeroDivisionError):
        run(testbed, events=lambda now, attacker: 1 / 0)
    assert log[-1] == ("close", None)


def test_empty_readout_window_fails_loudly():
    testbed, _log = logging_testbed()
    run(testbed)
    rate = testbed.metrics.series("victim")
    assert rate.minimum(0.5, 1.0) == 2.5
    with pytest.raises(SimulationError, match="no samples"):
        rate.minimum(5.0, 6.0)
    with pytest.raises(SimulationError, match="no samples"):
        rate.maximum(stop=0.0)


def test_cell_on_a_process_executor_leaves_nothing_behind(monkeypatch):
    """The runner owns ``close()``: no pmd worker, no shm ring survives a cell
    (Server 2's pool included — it never carries a packet, but it is spawned)."""
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    monkeypatch.setattr(
        backendsweep,
        "SYNTHETIC_ENV",
        replace(
            backendsweep.SYNTHETIC_ENV,
            n_pmd=2,
            datapath=replace(backendsweep.SYNTHETIC_ENV.datapath, executor="process"),
        ),
    )
    cell = backendsweep.run_netsim_cell(
        "tss", use_case_name="Dp", duration=8.0, attack_start=1.0, attack_stop=7.0, attack_pps=200.0
    )
    assert cell["peak_masks"] > 10
    assert multiprocessing.active_children() == []
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= shm
