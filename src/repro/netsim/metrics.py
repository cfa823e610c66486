"""Time-series collection for the simulation experiments (Fig. 8 a/b/c)."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator

from repro.exceptions import SimulationError

__all__ = ["TimeSeries", "MetricsCollector", "quantile"]


@dataclass
class TimeSeries:
    """One named series of (time, value) samples."""

    name: str
    times: list[float] = dc_field(default_factory=list)
    values: list[float] = dc_field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise SimulationError(f"{self.name}: time went backwards ({time})")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def at(self, time: float) -> float:
        """Value of the latest sample at or before ``time``."""
        if not self.times or time < self.times[0]:
            raise SimulationError(f"{self.name}: no sample at or before t={time}")
        # Linear scan from the back: queries are usually near the end.
        for t, v in zip(reversed(self.times), reversed(self.values)):
            if t <= time:
                return v
        raise SimulationError(f"{self.name}: no sample at or before t={time}")

    def mean(self, start: float = float("-inf"), stop: float = float("inf")) -> float:
        """Mean value over samples with start <= t < stop."""
        window = [v for t, v in self if start <= t < stop]
        if not window:
            raise SimulationError(f"{self.name}: no samples in [{start}, {stop})")
        return sum(window) / len(window)

    def minimum(self, start: float = float("-inf"), stop: float = float("inf")) -> float:
        """Min value over samples with start <= t < stop."""
        window = [v for t, v in self if start <= t < stop]
        if not window:
            raise SimulationError(f"{self.name}: no samples in [{start}, {stop})")
        return min(window)

    def maximum(self, start: float = float("-inf"), stop: float = float("inf")) -> float:
        """Max value over samples with start <= t < stop."""
        window = [v for t, v in self if start <= t < stop]
        if not window:
            raise SimulationError(f"{self.name}: no samples in [{start}, {stop})")
        return max(window)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 <= q <= 100.

    The fleet readouts compute p50/p99 with it over per-tenant floors
    rather than over time.
    """
    if not 0.0 <= q <= 100.0:
        raise SimulationError(f"percentile must be in [0, 100], got {q}")
    if not values:
        raise SimulationError("percentile of an empty window")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class MetricsCollector:
    """A bag of named time series."""

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}

    def record(self, name: str, time: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(name=name)
            self._series[name] = series
        series.record(time, value)

    def series(self, name: str) -> TimeSeries:
        try:
            return self._series[name]
        except KeyError:
            raise SimulationError(
                f"no series {name!r}; have: {', '.join(sorted(self._series))}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series
