#!/usr/bin/env python3
"""Operator triage: recognise a tuple space explosion from the switch side.

Plays both roles: first the attacker quietly explodes the tuple space, then
the operator inspects the datapath with the `ovs-dpctl`-style tooling the
paper's Algorithm 2 builds on, attributes the damage with the TSE pattern
detector, and consults the attack planner to see what this cloud's CMS
would have allowed in the first place.

Run:  python examples/operator_triage.py
"""

from repro.core import ColocatedTraceGenerator, SIPDP, find_tse_entries, plan_for_cms
from repro.netsim import BACKENDS
from repro.packet.headers import PROTO_TCP
from repro.switch import Datapath, DatapathConfig
from repro.switch.dpctl import dump_flows, mask_histogram, show


def main() -> None:
    # --- the incident -------------------------------------------------------
    table = SIPDP.build_table()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    datapath.process_batch(trace.keys, now=1.0)

    # --- step 1: the summary an operator pulls first --------------------------
    print("$ ovs-dpctl show")
    print(show(datapath))

    # --- step 2: eyeball a few flows ------------------------------------------
    print("\n$ ovs-dpctl dump-flows | head -5")
    print(dump_flows(datapath, max_flows=5))

    # --- step 3: the mask staircase is the smoking gun --------------------------
    histogram = mask_histogram(datapath)
    print(f"\nmask histogram: {len(histogram)} distinct wildcard levels "
          f"(benign caches have a handful) — sample: "
          f"{dict(list(histogram.items())[:5])}")

    # --- step 4: attribute it to rules -----------------------------------------
    patterns = find_tse_entries(datapath.megaflows, table)
    print("\nTSE attribution:")
    for pattern in patterns:
        print(f"  rule {pattern.rule.name!r}: {len(pattern.entries)} adversarial "
              f"entries across {pattern.mask_count} masks")

    # --- step 5: what could this cloud's CMS have prevented? --------------------
    print("\nexposure review (what each CMS admits):")
    for backend_name in ("openstack", "calico"):
        print(f"  {backend_name}:")
        for plan in plan_for_cms(BACKENDS[backend_name])[:2]:
            print(f"    {plan.summary()}")


if __name__ == "__main__":
    main()
