"""Unit tests for the simulation engine and metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SimulationError
from repro.netsim.engine import Simulation
from repro.netsim.metrics import MetricsCollector, TimeSeries


class Recorder:
    period = None  # the cadence Simulation.add reads; None: every dt

    def __init__(self, period=None):
        self.ticks = []
        if period is not None:
            self.period = period

    def tick(self, now, dt):
        self.ticks.append((round(now, 6), dt))


class TestSimulation:
    def test_tick_count_and_spacing(self):
        sim = Simulation(dt=0.5)
        recorder = Recorder()
        sim.add(recorder)
        sim.run(2.0)
        assert [t for t, _dt in recorder.ticks] == [0.0, 0.5, 1.0, 1.5]

    def test_components_ticked_in_order(self):
        sim = Simulation(dt=1.0)
        order = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def tick(self, now, dt):
                order.append(self.tag)

        sim.add(Tagged("a"))
        sim.add(Tagged("b"))
        sim.run(1.0)
        assert order == ["a", "b"]

    def test_observers_run_after_components(self):
        sim = Simulation(dt=1.0)
        events = []

        class Component:
            def tick(self, now, dt):
                events.append("component")

        sim.add(Component())
        sim.observe(lambda now: events.append("observer"))
        sim.run(2.0)
        assert events == ["component", "observer"] * 2

    def test_run_resumable(self):
        sim = Simulation(dt=1.0)
        recorder = Recorder()
        sim.add(recorder)
        sim.run(2.0)
        sim.run(2.0)
        assert len(recorder.ticks) == 4
        assert sim.now == pytest.approx(4.0)

    def test_float_drift_guard(self):
        sim = Simulation(dt=0.1)
        recorder = Recorder()
        sim.add(recorder)
        sim.run(3.0)
        assert len(recorder.ticks) == 30  # exactly, despite 0.1 imprecision

    def test_timestamps_exact_over_long_runs(self):
        """now must be derived (start + i*dt), not accumulated (+= dt).

        Accumulated 0.1 rounding error grows past 1e-9 s within a few
        thousand ticks, which is enough to flip `now - last_used >=
        idle_timeout` comparisons at the 10 s eviction boundary.
        """

        class Stamps:
            def __init__(self):
                self.times = []

            def tick(self, now, dt):
                self.times.append(now)

        sim = Simulation(dt=0.1)
        stamps = Stamps()
        sim.add(stamps)
        sim.run(500.0)  # 5000 ticks
        assert len(stamps.times) == 5000
        # Bit-exact against direct derivation — no accumulated drift.
        assert stamps.times == [i * 0.1 for i in range(5000)]
        assert sim.now == 5000 * 0.1

    def test_timestamps_exact_across_resumed_runs(self):
        sim = Simulation(dt=0.1)
        recorder = Recorder()
        sim.add(recorder)
        for _ in range(50):
            sim.run(1.0)
        assert len(recorder.ticks) == 500
        assert sim.now <= 50.0 + 1e-9  # resumed runs may round, never drift far

    def test_validation(self):
        with pytest.raises(SimulationError):
            Simulation(dt=0)
        with pytest.raises(SimulationError):
            Simulation(mode="adaptive")
        with pytest.raises(SimulationError):
            Simulation(mode="fixed")
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.run(-1)
        with pytest.raises(SimulationError):
            sim.add(object())
        with pytest.raises(SimulationError):
            sim.add(Recorder(period=0.0))

    def test_observe_rejects_non_callable(self):
        sim = Simulation()
        with pytest.raises(SimulationError, match="not callable"):
            sim.observe("sample_me")
        with pytest.raises(SimulationError, match="not callable"):
            sim.observe(None)


class TestEventMode:
    def test_components_tick_at_their_period(self):
        sim = Simulation(dt=0.1)
        fast, slow = Recorder(period=0.1), Recorder(period=0.5)
        sim.add(fast)
        sim.add(slow)
        sim.run(1.0)
        assert [t for t, _ in fast.ticks] == [round(i * 0.1, 6) for i in range(10)]
        assert [t for t, _ in slow.ticks] == [0.0, 0.5]
        # Each component receives the time elapsed since *its* last tick.
        assert all(dt == pytest.approx(0.1) for _, dt in fast.ticks)
        assert all(dt == pytest.approx(0.5) for _, dt in slow.ticks)

    def test_period_attribute_honoured(self):
        class Periodic(Recorder):
            period = 0.4

        sim = Simulation(dt=0.1)
        component = Periodic()
        sim.add(component)
        sim.run(1.0)
        assert [t for t, _ in component.ticks] == [0.0, 0.4, 0.8]

    def test_registration_order_at_coincident_ticks(self):
        """Periods are tick-quantised: a 0.2s and a 0.1s component meet
        exactly every other tick, in registration order."""
        sim = Simulation(dt=0.1)
        order = []

        class Tagged:
            def __init__(self, tag, period):
                self.tag = tag
                self.period = period

            def tick(self, now, dt):
                order.append((self.tag, round(now, 6)))

        sim.add(Tagged("b", 0.2))
        sim.add(Tagged("a", 0.1))
        sim.run(0.4)
        assert order == [
            ("b", 0.0), ("a", 0.0), ("a", 0.1), ("b", 0.2), ("a", 0.2), ("a", 0.3),
        ]

    def test_observers_after_each_event_batch(self):
        sim = Simulation(dt=0.1)
        events = []

        class Component:
            period = 0.3

            def tick(self, now, dt):
                events.append(("tick", round(now, 6)))

        sim.add(Component())
        sim.observe(lambda now: events.append(("observe", round(now, 6))))
        sim.run(0.7)
        assert events == [
            ("tick", 0.0), ("observe", 0.0),
            ("tick", 0.3), ("observe", 0.3),
            ("tick", 0.6), ("observe", 0.6),
        ]

    def test_resumable_across_runs(self):
        sim = Simulation(dt=0.1)
        slow = Recorder(period=0.3)
        sim.add(slow)
        sim.run(0.4)  # ticks at 0.0, 0.3
        sim.run(0.4)  # ticks at 0.6
        assert [t for t, _ in slow.ticks] == [0.0, 0.3, 0.6]
        assert sim.now == 8 * 0.1


class TestLongRunContracts:
    def test_million_ticks_drift_free(self):
        """Over 10^6 ticks every timestamp is exactly start + i*dt."""

        class Checker:
            def __init__(self, dt):
                self.dt = dt
                self.count = 0

            def tick(self, now, dt):
                # Bit-exact derived timestamp — never accumulated.
                assert now == self.count * self.dt
                self.count += 1

        sim = Simulation(dt=0.1)
        checker = Checker(0.1)
        sim.add(checker)
        sim.run(100_000.0)  # 10^6 ticks
        assert checker.count == 1_000_000
        assert sim.now == 1_000_000 * 0.1

    @given(
        a=st.integers(min_value=0, max_value=400),
        b=st.integers(min_value=0, max_value=400),
        dt=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1 / 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_run_equals_joined_run_fixed(self, a, b, dt):
        """run(a); run(b) ≡ run(a+b), tick for tick (durations on the grid)."""
        split_sim = Simulation(dt=dt)
        split = Recorder()
        split_sim.add(split)
        split_sim.run(a * dt)
        split_sim.run(b * dt)

        joined_sim = Simulation(dt=dt)
        joined = Recorder()
        joined_sim.add(joined)
        joined_sim.run((a + b) * dt)

        assert split.ticks == joined.ticks
        assert split_sim.now == joined_sim.now

    @given(
        a=st.integers(min_value=0, max_value=200),
        b=st.integers(min_value=0, max_value=200),
        periods=st.lists(
            st.integers(min_value=1, max_value=7), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_run_equals_joined_run_event(self, a, b, periods):
        dt = 0.1

        def build():
            sim = Simulation(dt=dt)
            recorders = []
            for ticks in periods:
                recorder = Recorder(period=ticks * dt)
                sim.add(recorder)
                recorders.append(recorder)
            return sim, recorders

        split_sim, split = build()
        split_sim.run(a * dt)
        split_sim.run(b * dt)
        joined_sim, joined = build()
        joined_sim.run((a + b) * dt)

        for split_recorder, joined_recorder in zip(split, joined):
            assert split_recorder.ticks == joined_recorder.ticks
        assert split_sim.now == joined_sim.now


class TestTimeSeries:
    def test_record_and_query(self):
        series = TimeSeries("rate")
        for t, v in ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
            series.record(t, v)
        assert len(series) == 3
        assert series.at(1.5) == 2.0
        assert series.at(2.0) == 3.0
        assert series.mean(0.0, 3.0) == 2.0
        assert series.minimum() == 1.0
        assert series.maximum(1.0, 3.0) == 3.0

    def test_time_monotonicity(self):
        series = TimeSeries("x")
        series.record(1.0, 1.0)
        with pytest.raises(SimulationError, match="backwards"):
            series.record(0.5, 2.0)

    def test_empty_window(self):
        series = TimeSeries("x")
        series.record(0.0, 1.0)
        with pytest.raises(SimulationError):
            series.mean(5.0, 6.0)
        with pytest.raises(SimulationError):
            series.at(-1.0)

    def test_iteration(self):
        series = TimeSeries("x")
        series.record(0.0, 1.0)
        assert list(series) == [(0.0, 1.0)]


class TestMetricsCollector:
    def test_collects_named_series(self):
        metrics = MetricsCollector()
        metrics.record("rate", 0.0, 5.0)
        metrics.record("rate", 1.0, 6.0)
        metrics.record("masks", 0.0, 1.0)
        assert metrics.names() == ["masks", "rate"]
        assert "rate" in metrics
        assert metrics.series("rate").at(1.0) == 6.0

    def test_unknown_series(self):
        with pytest.raises(SimulationError, match="no series"):
            MetricsCollector().series("nope")
