"""Cloudsweep — victim-floor distributions across a multi-rack fleet.

The paper's co-location result measured one contended hypervisor; this
experiment asks the *cloud* question: what does a tuple-space-explosion
campaign do to the tenant population of a whole fleet?  A multi-rack
:class:`~repro.netsim.fleet.Fleet` (default 100 hosts × 1000 tenants)
runs under the event-driven scheduler — racks settle their tenants in
one vectorised pass per period, attack sources tick at the base dt on
the hosts they detonate — under two campaign shapes with the *same total
attack budget*:

* **spread**: the budget is divided evenly across every host (each
  hypervisor sees a trickle of crafted packets);
* **concentrated**: the full budget detonates one host's datapath.

The readout is the distribution of per-tenant throughput *floors* (the
minimum achieved rate during the attack window): p50 tells the typical
tenant's story, p99/p01 the tails.  A concentrated campaign starves one
host's tenants outright (deep p01) while the fleet median barely moves.
The spread campaign is the sharper result: because the crafted trace
loops and the detonated megaflows *persist* (the revalidator only evicts
after sustained idleness), even a per-host trickle walks the full mask
staircase within the window — the same budget that starved one host
floors the median tenant of the *entire fleet*.  That is the fleet-scale
restatement of the paper's core finding: the attack's power is its
cheapness against a shared cache — tens of pps per hypervisor, amplified
by state that stays detonated, not raw packet volume.
"""

from __future__ import annotations

from repro.experiments.backendsweep import attacker_rules
from repro.experiments.common import ExperimentResult
from repro.exceptions import ExperimentError
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.engine import Simulation
from repro.netsim.fleet import Fleet
from repro.netsim.flows import ActiveWindow, AttackSource
from repro.netsim.metrics import quantile

__all__ = ["run", "run_plan"]

PLANS = ("spread", "concentrated")
ATTACK_PPS = 2000.0  # the campaign's total budget
USE_CASE = "SipDp"


def run_plan(
    plan: str,
    n_racks: int,
    hosts_per_rack: int,
    tenants_per_host: int,
    duration: float,
    attack_start: float,
    attack_stop: float,
) -> dict:
    """One detonation plan over a fresh Synthetic fleet; returns its floor stats.

    ``plan="concentrated"`` aims the whole ``ATTACK_PPS`` at host (0, 0);
    ``plan="spread"`` divides it evenly across every host in the fleet —
    same crafted trace per host, same total budget either way.
    """
    if plan not in PLANS:
        raise ExperimentError(f"unknown plan {plan!r}; expected one of {PLANS}")
    fleet = Fleet(
        SYNTHETIC_ENV,
        n_racks=n_racks,
        hosts_per_rack=hosts_per_rack,
        tenants_per_host=tenants_per_host,
    )
    try:
        simulation = Simulation()
        fleet.register(simulation)
        rules = attacker_rules(USE_CASE)
        window = [ActiveWindow(attack_start, attack_stop)]
        hosts = list(fleet.hosts())
        targets = hosts if plan == "spread" else [fleet.host(0, 0)]
        per_host_pps = ATTACK_PPS / len(targets)
        for host in targets:
            trace = host.detonation_trace(rules, label=USE_CASE)
            simulation.add(
                AttackSource(
                    host=host,
                    keys=trace.keys,
                    pps=per_host_pps,
                    windows=window,
                    name=f"attacker-{host.name}",
                    period=simulation.dt,
                )
            )

        simulation.run(attack_start)
        baseline = fleet.rates().tolist()
        fleet.start_recording()
        simulation.run(duration - attack_start)

        floors = fleet.floors()
        attacked = [
            value
            for host in targets
            for value in host.tenants.floor_gbps.tolist()
        ]
        return {
            "plan": plan,
            "n_hosts": len(hosts),
            "n_tenants": fleet.tenant_count,
            "attacked_hosts": len(targets),
            "per_host_pps": per_host_pps,
            "baseline_p50": quantile(baseline, 50.0),
            "floor_p01": quantile(floors.tolist(), 1.0),
            "floor_p50": quantile(floors.tolist(), 50.0),
            "floor_p99": quantile(floors.tolist(), 99.0),
            "attacked_floor_p50": quantile(attacked, 50.0),
            "floor_min": float(floors.min()),
        }
    finally:
        fleet.close()


def run(
    n_racks: int = 4,
    hosts_per_rack: int = 25,
    tenants_per_host: int = 1000,
    duration: float = 30.0,
    attack_start: float = 5.0,
    attack_stop: float = 25.0,
) -> ExperimentResult:
    """Floor distributions for both detonation plans over the same fleet shape."""
    result = ExperimentResult(
        experiment_id="cloudsweep",
        title=(
            f"{USE_CASE} campaign over {n_racks * hosts_per_rack} hosts x "
            f"{tenants_per_host} tenants ({SYNTHETIC_ENV.name}), "
            f"spread vs concentrated at {ATTACK_PPS:.0f} pps total"
        ),
        paper_reference="fleet-scale extension of §5.4 (ROADMAP item 1; arXiv:2011.09107)",
        columns=[
            "plan",
            "attacked_hosts",
            "per_host_pps",
            "baseline_p50_gbps",
            "floor_p01_gbps",
            "floor_p50_gbps",
            "floor_p99_gbps",
            "attacked_floor_p50_gbps",
            "floor_min_gbps",
        ],
    )
    cells = [
        run_plan(plan, n_racks, hosts_per_rack, tenants_per_host, duration, attack_start, attack_stop)
        for plan in PLANS
    ]
    for cell in cells:
        result.add_row(
            cell["plan"],
            cell["attacked_hosts"],
            round(cell["per_host_pps"], 2),
            round(cell["baseline_p50"], 5),
            round(cell["floor_p01"], 5),
            round(cell["floor_p50"], 5),
            round(cell["floor_p99"], 5),
            round(cell["attacked_floor_p50"], 5),
            round(cell["floor_min"], 5),
        )
    spread, concentrated = cells
    result.notes.append(
        f"{spread['n_tenants']} tenants across {spread['n_hosts']} hosts; "
        "same total attack budget per plan."
    )
    result.notes.append(
        "concentrated: attacked-host tenant floor p50 "
        f"{concentrated['attacked_floor_p50']:.4f} Gbps vs fleet baseline p50 "
        f"{concentrated['baseline_p50']:.4f} Gbps; fleet floor p50 stays at "
        f"{concentrated['floor_p50']:.4f}."
    )
    result.notes.append(
        "spread: the same budget as a per-host trickle "
        f"({spread['per_host_pps']:.0f} pps/host) floors the fleet-wide tenant "
        f"p50 to {spread['floor_p50']:.4f} Gbps — looped traces and persistent "
        "megaflows let tens of pps fully detonate every shared cache."
    )
    return result
