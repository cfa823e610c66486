#!/usr/bin/env python3
"""MFCGuard in action: detect the TSE pattern, evict it, keep service fast (§8).

Mounts a full-blown SipSpDp attack against a simulated datapath, then runs
MFCGuard's Algorithm 2: the guard finds the per-rule TSE patterns in the
megaflow cache, deletes the adversarial (deny) entries — never the useful
ones — and the tuple space collapses back to its benign size.  The price:
deleted entries never re-spark, so the attack traffic is pinned to the
slow path, whose CPU cost the Fig. 9c model quantifies.

Run:  python examples/mfcguard_demo.py
"""

from repro import ColocatedTraceGenerator, Datapath, DatapathConfig, MFCGuard, MFCGuardConfig
from repro.core import SIPSPDP, find_tse_entries
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.costmodel import slow_path_cpu_pct


def main() -> None:
    table = SIPSPDP.build_table()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))

    # Benign traffic first: a web client the ACL admits.
    benign = FlowKey(ip_proto=PROTO_TCP, ip_src=0xC0A80001, tp_src=40000, tp_dst=80)
    verdict = datapath.process(benign, now=0.0)
    print(f"benign packet -> {verdict.action} via {verdict.path.value}")

    # The attack.
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    datapath.process_batch(trace.keys, now=1.0)
    print(f"after attack: {datapath.n_masks} masks, {datapath.n_megaflows} entries")

    # What the detector sees.
    patterns = find_tse_entries(datapath.megaflows, table)
    for pattern in patterns:
        print(f"  TSE pattern against rule {pattern.rule.name!r}: "
              f"{len(pattern.entries)} entries / {pattern.mask_count} masks")

    # Algorithm 2.
    guard = MFCGuard(datapath, MFCGuardConfig(cpu_threshold_pct=90.0))
    masks_before = datapath.n_masks
    decisions = guard.run(now=10.0)
    cleaned = dict.fromkeys(d.subject for d in decisions if d.action == "clean")
    print(f"\nMFCGuard: deleted {sum(d.changed for d in decisions)} entries "
          f"({masks_before} -> {datapath.n_masks} masks), "
          f"rules cleaned: {', '.join(cleaned)}")

    # The benign flow still rides the fast path...
    verdict = datapath.process(benign, now=11.0)
    print(f"benign packet -> {verdict.action} via {verdict.path.value} "
          f"(masks inspected: {verdict.masks_inspected})")

    # ...while replayed attack packets are stuck on the slow path forever.
    attack_key = trace.keys[len(trace.keys) // 2]
    for _ in range(3):
        verdict = datapath.process(attack_key, now=12.0)
    print(f"attack packet -> {verdict.action} via {verdict.path.value} "
          "(deleted megaflows never re-spark, §8)")
    print(f"\nslow-path CPU at 1,000 pps of demoted traffic: "
          f"{slow_path_cpu_pct(1000):.0f}% "
          f"(paper: ~15%); at 10,000 pps: {slow_path_cpu_pct(10000):.0f}% (paper: ~80%)")


if __name__ == "__main__":
    main()
