"""Simulation engine: one event-driven scheduler on a drift-free clock.

The experiments advance in small ticks (100 ms by default): traffic sources
inject real packets into the simulated datapath, then the hypervisor model
settles CPU accounting and assigns victim rates, then observers sample
metrics.  Components due at the same tick run in registration order, so
register sources before the hypervisor and the hypervisor before observers.

A component declares a ``period`` attribute and is ticked from a heap at
its own cadence; one that declares none ticks at every base ``dt``, which is how
every paper preset runs.  A 10k-host fleet whose idle hosts settle once a
second does not pay 100 ms ticks everywhere; a component's ``tick``
receives the time elapsed since *its* previous tick as ``dt``, so rate
integration (``pps * dt``) stays exact at any cadence.

Periods are quantised onto the base ``dt`` grid (integer tick multiples),
which keeps coincident events exactly coincident — a 0.1 s source and a
1.0 s revalidator meet on the same timestamp every 10 ticks instead of
drifting apart by float rounding.  All timestamps are derived as
``origin + k * dt`` from a single integer tick counter that spans the
simulation's whole lifetime, so ``run(a); run(b)`` produces the identical
timestamp sequence to ``run(a + b)``, tick for tick, even over millions of
ticks.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro.exceptions import SimulationError

__all__ = ["SimComponent", "Simulation"]


class SimComponent(Protocol):
    """Anything the simulation loop can drive.

    A component may additionally expose a ``period`` attribute (seconds);
    the scheduler ticks it at that cadence (quantised to the base ``dt``
    grid), and at every ``dt`` when it declares none.
    """

    def tick(self, now: float, dt: float) -> None:  # pragma: no cover - protocol
        ...


class Simulation:
    """The simulation loop.

    Args:
        dt: base tick length in seconds (the cadence of a component that
            declares no period, and the grid periods are quantised onto).
        mode: ``"event"``, the one schedule; accepted so that callers
            which still name it keep working.
    """

    MODES = ("event",)

    def __init__(self, dt: float = 0.1, mode: str = "event"):
        if dt <= 0:
            raise SimulationError(f"dt must be positive, got {dt}")
        if mode not in self.MODES:
            raise SimulationError(f"unknown mode {mode!r}; expected one of {self.MODES}")
        self.dt = dt
        self.now = 0.0
        # Single integer tick counter spanning the simulation's lifetime.
        # Every timestamp is derived as `tick * dt` from it (never
        # accumulated with `now += dt`), so rounding error cannot compound
        # across ticks *or* across resumed `run()` calls — the contract the
        # 10 s idle-eviction comparisons of Fig. 8a/8b rely on.
        self._tick = 0
        # (next tick, registration order, component, period in ticks).
        self._heap: list[tuple[int, int, SimComponent, int]] = []
        self._observers: list[Callable[[float], None]] = []

    def add(self, component: SimComponent) -> None:
        """Register a component (ticked in registration order at equal times).

        The component's ``period`` attribute (seconds) sets its cadence;
        components declaring none (or ``None``) tick at every base ``dt``.
        Periods are quantised to the nearest whole number of base ticks
        (at least one).
        """
        if not hasattr(component, "tick"):
            raise SimulationError(f"{component!r} has no tick() method")
        period = getattr(component, "period", None)
        period_ticks = 1
        if period is not None:
            if period <= 0:
                raise SimulationError(f"period must be positive, got {period}")
            period_ticks = max(1, round(period / self.dt))
        heapq.heappush(self._heap, (self._tick, len(self._heap), component, period_ticks))

    def observe(self, callback: Callable[[float], None]) -> None:
        """Register a sampling callback run after the components of a tick.

        Observers run after every timestamp at which at least one component
        ticked (there is nothing new to sample in between).
        """
        if not callable(callback):
            raise SimulationError(f"observer {callback!r} is not callable")
        self._observers.append(callback)

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds.

        Pops the schedule heap up to (excluding) the end tick.  Components
        due at the same tick run in registration order (the heap is keyed
        ``(tick, registration order)``); each receives the wall time
        elapsed since its own previous tick as ``dt``.
        """
        if duration < 0:
            raise SimulationError(f"duration must be >= 0, got {duration}")
        end_tick = self._tick + round(duration / self.dt)
        heap = self._heap
        while heap and heap[0][0] < end_tick:
            tick = heap[0][0]
            self.now = tick * self.dt
            while heap and heap[0][0] == tick:
                _, order, component, period_ticks = heapq.heappop(heap)
                component.tick(self.now, period_ticks * self.dt)
                heapq.heappush(heap, (tick + period_ticks, order, component, period_ticks))
            for observer in self._observers:
                observer(self.now)
        self._tick = end_tick
        self.now = end_tick * self.dt
