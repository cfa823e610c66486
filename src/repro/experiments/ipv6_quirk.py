"""§5.4 IPv6 quirk — exact-matched 128-bit fields trade masks for memory.

When the SipDp vector runs over IPv6, the paper observes OVS wildcarding
only the TCP destination port while *exact-matching* the IPv6 source
address: a handful of masks, but hundreds of thousands of megaflow entries
— the damage shifts from lookup time to memory and revalidator CPU (OVS
burned 8 cores trying to reclaim megaflow memory).

Our strategy model reproduces this with ``OVS_DEFAULT`` (fields wider than
64 bits collapse to one chunk); the counterfactual bit-level wildcarding
strategy is shown for contrast.
"""

from __future__ import annotations

from repro.classifier.actions import ALLOW
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.classifier.slowpath import OVS_DEFAULT, WILDCARDING, StrategyConfig
from repro.core.general import GeneralTraceGenerator
from repro.experiments.common import ExperimentResult
from repro.packet.addresses import ipv6
from repro.packet.headers import ETHERTYPE_IPV6, PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.revalidator import REVALIDATE_UNITS_PER_ENTRY

__all__ = ["run"]

N_PACKETS = 20000


def _ipv6_sipdp_table() -> FlowTable:
    table = FlowTable(name="acl-sipdp-v6")
    table.add_rule(Match(ip_proto=PROTO_TCP, tp_dst=80), ALLOW, priority=20, name="allow-tp_dst")
    table.add_rule(
        Match(ipv6_src=ipv6("2001:db8::1"), ip_proto=PROTO_TCP),
        ALLOW,
        priority=10,
        name="allow-ipv6_src",
    )
    table.add_default_deny()
    return table


def _attack(strategy: StrategyConfig) -> Datapath:
    table = _ipv6_sipdp_table()
    datapath = Datapath(
        table,
        DatapathConfig(microflow_capacity=0, strategy=strategy, max_megaflows=1_000_000),
    )
    source = GeneralTraceGenerator(
        fields=("ipv6_src", "tp_dst"),
        base={"eth_type": ETHERTYPE_IPV6, "ip_proto": PROTO_TCP},
        seed=0,
    )
    datapath.process_batch(list(source.keys(N_PACKETS)))
    return datapath


def run() -> ExperimentResult:
    """Contrast exact-match IPv6 handling with bit-level wildcarding."""
    result = ExperimentResult(
        experiment_id="ipv6",
        title=f"SipDp over IPv6: {N_PACKETS} random packets, per strategy",
        paper_reference="§5.4 IPv6 observation",
        columns=[
            "strategy", "mfc_masks", "megaflows", "memory_mb", "reval_units_per_sweep",
        ],
    )
    for label, strategy in (
        ("ovs-default (v6 exact)", OVS_DEFAULT),
        ("bit-wildcarding", WILDCARDING),
    ):
        datapath = _attack(strategy)
        result.add_row(
            label,
            datapath.n_masks,
            datapath.n_megaflows,
            round(datapath.megaflows.memory_bytes() / 1e6, 2),
            round(datapath.n_megaflows * REVALIDATE_UNITS_PER_ENTRY, 0),
        )
    result.notes.append(
        "ovs-default: a handful of masks but one megaflow per distinct source address — "
        "memory and revalidation blow up instead of lookup time (OVS took 8 cores "
        "reclaiming megaflow memory; capped at 2 cores the victim fell to 5%)"
    )
    result.notes.append(
        "bit-wildcarding on the same traffic: masks grow toward 128*16 but entries stay "
        "near the mask count — the trade-off Theorem 4.1 parameterises"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
