"""Fleet-settlement benchmarks: fleet floors + tenant streaming.

Two guards, persisted to ``results/BENCH_cloud.json``:

* **Fleet floors** — a multi-rack fleet cell (event-driven scheduler,
  rack-wide concatenated settlement) under a concentrated detonation:
  the attacked host's tenants must sink, and the floor quantiles land in
  the trajectory as deterministic simulation output.
* **Streaming tenant generation** — :class:`repro.netsim.fleet.
  TenantStream` must mint tenant columns fast enough that fleet
  construction never dominates (guarded in tenants/second), holding at
  most one host's block resident — the O(hosts) memory contract of
  million-tenant runs.

Settlement *speed* is the perf harness's ``netsim.settlement.
settle_ns_per_tenant`` (``benchmarks/perf/``); vector ≡ scalar identity
is tier-1 (``tests/settlement_oracle.py``), where the scalar loops live.

``REPRO_BENCH_SMOKE=1`` shrinks the fleet cell and the streamed host
count and publishes to the gitignored ``BENCH_cloud.smoke.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cloud.py -q -s
"""

from __future__ import annotations

import time

from common import SMOKE, publish
from repro.experiments.cloudsweep import run_plan
from repro.netsim.fleet import TenantStream

FLEET_CELL = dict(
    n_racks=2,
    hosts_per_rack=4 if SMOKE else 10,
    tenants_per_host=200 if SMOKE else 500,
    duration=12.0 if SMOKE else 20.0,
    attack_start=3.0,
    attack_stop=10.0 if SMOKE else 18.0,
    attack_pps=1000.0,
    seed=11,
)

STREAM_HOSTS = 100 if SMOKE else 1000
STREAM_TENANTS_PER_HOST = 1000  # full size: one million tenants streamed

_metrics: dict[str, object] = {}


def test_fleet_floors():
    """A concentrated detonation sinks the attacked host's tenants."""
    cell = run_plan("concentrated", **FLEET_CELL)
    _metrics.update(
        {
            "fleet_hosts": cell["n_hosts"],
            "fleet_tenants": cell["n_tenants"],
            "fleet_baseline_p50_gbps": round(cell["baseline_p50"], 5),
            "fleet_floor_p50_gbps": round(cell["floor_p50"], 5),
            "fleet_floor_p01_gbps": round(cell["floor_p01"], 5),
            "fleet_attacked_floor_p50_gbps": round(cell["attacked_floor_p50"], 5),
        }
    )
    # The detonation must actually bite the attacked host's tenants.
    assert cell["attacked_floor_p50"] < 0.5 * cell["baseline_p50"]


def test_streaming_generation_rate():
    """Seeded tenant streams mint columns at fleet-construction rates."""
    start = time.perf_counter()
    total = 0
    checksum = 0
    for host_index in range(STREAM_HOSTS):
        block = TenantStream(42, 0, host_index, STREAM_TENANTS_PER_HOST).build()
        total += len(block)
        checksum ^= int(block.tp_src[-1])  # touch the columns; keep none
    elapsed = time.perf_counter() - start
    rate = total / elapsed
    assert total == STREAM_HOSTS * STREAM_TENANTS_PER_HOST
    assert rate > 50_000, f"streamed only {rate:.0f} tenants/sec"

    _metrics["stream_hosts"] = STREAM_HOSTS
    _metrics["stream_total_tenants"] = total
    _metrics["stream_tenants_per_sec"] = round(rate)
    _metrics["stream_checksum"] = checksum

    # Last test in the module: publish everything the guards collected.
    # (Running a subset publishes a partial payload, which the trajectory
    # gate rejects as missing metrics — full-file runs only.)
    publish("cloud", dict(_metrics, workload="fleet-settlement-sipdp"))
