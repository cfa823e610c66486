"""Megaflow-backend sweep — the same TSE detonation against every backend.

The §7 discussion argues the TSE attack is specific to Tuple Space Search:
any cache whose lookup cost does not scale with the installed mask count
shrugs the detonation off.  With the megaflow cache behind the pluggable
:class:`~repro.classifier.backend.MegaflowStore` seam *and* the cost
plane priced in backend-native probe units, this is measurable in two
regimes, both covered here:

* **the probe table** — the identical three-phase traffic program (benign,
  co-located TSE detonation, benign again) through one bare datapath per
  backend, reporting mask/entry growth (identical by
  construction) and per-packet lookup cost in the backend's native probe
  units;
* **the netsim time series** — the full Fig. 7 hypervisor under a
  detonation window, one run per backend, with victim throughput settled
  by the probe-native cost plane.  Because the hypervisor now divides
  budgets by ``expected_scan_cost()`` instead of the mask count, the
  grouped backend's victim *visibly keeps its throughput* while TSS's
  collapses — the regime the OVS feasibility follow-up (arXiv:2011.09107)
  says defenses must be judged in, not just bare replay pps.

The headline contrast: after the attack both backends hold the same
exploded mask list, but TSS's expected scan cost *is* that mask count
while the grouped backend's chain walk stays near its pre-attack level —
so only the TSS victim starves (asserted on the golden run in
``tests/test_experiments.py``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.classifier.backend import megaflow_backend_names
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import use_case
from repro.experiments.common import ExperimentResult, benign_keys
from repro.experiments.scenario import detonation_testbed, run_attack_window, samples
from repro.experiments.testbeds import TRUSTED_IP
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.cms import PolicyRule
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig

__all__ = ["run", "run_netsim_cell", "attacker_rules"]

USE_CASE = "SipDp"  # the probe table's ACL and the netsim detonation's
DURATION = 35.0
ATTACK_START, ATTACK_STOP = 5.0, 25.0
ATTACK_PPS = 1200.0


def _mean_probes(verdicts) -> float:
    return sum(v.masks_inspected for v in verdicts) / max(len(verdicts), 1)


def attacker_rules(use_case_name: str) -> list[PolicyRule]:
    """The attacker's ACL for a named use case (§5.2 staircase products).

    Each allow rule contributes one exact-match field whose bit-inversion
    staircase multiplies into the detonated tuple space: Dp = 16 masks,
    SipDp = 16·32, SipSpDp = 16·32·16 (8,192 deny masks).
    """
    fields = use_case(use_case_name).allow_fields
    rules = []
    for field in fields:
        if field == "tp_dst":
            rules.append(PolicyRule(dst_port=80))
        elif field == "tp_src":
            rules.append(PolicyRule(src_port=1000))
        elif field == "ip_src":
            rules.append(PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)))
        else:  # pragma: no cover - no current use case reaches here
            raise ValueError(f"no attacker rule template for field {field!r}")
    return rules


def run_netsim_cell(
    backend: str,
    use_case_name: str,
    duration: float,
    attack_start: float,
    attack_stop: float,
    attack_pps: float,
) -> dict:
    """One backend's full netsim run: detonation window, settled victim rates.

    Returns the time series plus its summary: victim baseline (max before
    the attack), floor (min once the detonation has settled, from
    ``attack_start + 5`` to ``attack_stop``), the final mask count and the
    final expected scan cost in the backend's normalised probe units.
    """
    environment = replace(
        SYNTHETIC_ENV,
        name=f"Synthetic/{backend}",
        datapath=replace(SYNTHETIC_ENV.datapath, megaflow_backend=backend),
    )
    testbed, trace = detonation_testbed(environment, attacker_rules(use_case_name), use_case_name)
    run_attack_window(
        testbed, trace.keys, attack_pps, [(attack_start, attack_stop)], duration
    )
    metrics = testbed.metrics
    rate = metrics.series("victim")
    return {
        "backend": backend,
        "series": list(samples(metrics, "victim", "masks", "scan_cost")),
        "baseline_gbps": rate.maximum(stop=attack_start),
        "floor_gbps": rate.minimum(attack_start + 5.0, attack_stop),
        "peak_masks": metrics.series("masks").maximum(),
        "peak_scan_cost": metrics.series("scan_cost").maximum(),
        "trace_packets": len(trace.keys),
    }


def run() -> ExperimentResult:
    """Run the three-phase probe table and the netsim time series per backend."""
    case = use_case(USE_CASE)
    names = megaflow_backend_names()
    benign = benign_keys(case, 400)

    result = ExperimentResult(
        experiment_id="backendsweep",
        title=f"megaflow backends under the co-located TSE detonation ({case.name} ACL)",
        paper_reference="§7 long-term mitigation (TupleChain regime)",
        columns=[
            "backend", "masks", "entries", "groups",
            "benign_probe", "attack_probe", "benign_after_probe", "degradation_x",
            "victim_baseline_gbps", "victim_floor_gbps", "scan_cost_units",
        ],
    )

    cells = {
        name: run_netsim_cell(name, USE_CASE, DURATION, ATTACK_START, ATTACK_STOP, ATTACK_PPS)
        for name in names
    }

    transcripts: dict[str, list] = {}
    for name in names:
        datapath = Datapath(
            case.build_table(),
            DatapathConfig(microflow_capacity=0, megaflow_backend=name),
        )
        cache = datapath.megaflows
        actions: list = []

        verdicts = datapath.process_batch(benign)
        actions.extend(v.action for v in verdicts)
        benign_probe = _mean_probes(verdicts)

        attack = ColocatedTraceGenerator(
            datapath.flow_table, base={"ip_proto": PROTO_TCP}
        ).generate()
        actions.extend(v.action for v in datapath.process_batch(list(attack.keys)))
        cache.shuffle_masks(seed=1)  # steady-state scan order (no-op cost for chains)

        cache.clear_memo()
        attack_verdicts = datapath.process_batch(list(attack.keys))
        actions.extend(v.action for v in attack_verdicts)
        attack_probe = _mean_probes(attack_verdicts)

        cache.clear_memo()
        after_verdicts = datapath.process_batch(benign)
        actions.extend(v.action for v in after_verdicts)
        after_probe = _mean_probes(after_verdicts)

        transcripts[name] = actions
        cell = cells[name]
        result.add_row(
            name,
            datapath.n_masks,
            datapath.n_megaflows,
            getattr(cache, "n_groups", datapath.n_masks),
            round(benign_probe, 2),
            round(attack_probe, 2),
            round(after_probe, 2),
            round(after_probe / benign_probe if benign_probe else float("inf"), 1),
            round(cell["baseline_gbps"], 3),
            round(cell["floor_gbps"], 3),
            round(cell["peak_scan_cost"], 1),
        )

    reference = transcripts[names[0]]
    agree = all(transcripts[name] == reference for name in names[1:])
    result.notes.append(
        "verdict equivalence across backends (benign + attack + benign-after): "
        + ("IDENTICAL" if agree else "MISMATCH — backend bug!")
    )
    result.notes.append(
        "probe units are backend-native (mask tables scanned vs chain hash probes); "
        "compare each backend's before/after trend, not absolute columns"
    )
    result.notes.append(
        "masks/entries are backend-independent: the slow path generates the same "
        "megaflows, only the structure that scans them changes"
    )
    for name in names:
        cell = cells[name]
        result.notes.append(
            f"netsim ({USE_CASE} detonation at {ATTACK_PPS:.0f} pps): {name} victim "
            f"{cell['baseline_gbps']:.2f} -> {cell['floor_gbps']:.3f} Gbps at "
            f"{cell['peak_masks']} masks / scan cost {cell['peak_scan_cost']:.1f} probe units"
        )
    result.notes.append(
        "the probe-native cost plane prices each victim at its backend's expected "
        "scan cost, so only backends whose scan cost tracks the mask count starve"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
