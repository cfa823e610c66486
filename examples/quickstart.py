#!/usr/bin/env python3
"""Quickstart: mount a Tuple Space Explosion attack in ~40 lines.

Builds the paper's Fig. 6 ACL (allow web traffic, a trusted host and a
trusted source port; deny the rest), crafts the co-located adversarial
trace, replays it through a simulated Open vSwitch datapath, and reports
what happened to the tuple space — and to a victim's throughput.

Run:  python examples/quickstart.py
"""

from repro import ColocatedTraceGenerator, CostModel, Datapath
from repro.core import SIPSPDP
from repro.packet.headers import PROTO_TCP


def main() -> None:
    # 1. The victim-side ACL (Fig. 6): three allow rules + DefaultDeny.
    table = SIPSPDP.build_table()
    print(table.format_table())

    # 2. A simulated OVS datapath enforcing it.
    datapath = Datapath(table)
    print(f"\nfresh datapath: {datapath!r}")

    # 3. The co-located TSE trace: one packet per decision path of the ACL.
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate("SipSpDp")
    print(f"adversarial trace: {len(trace)} packets "
          f"(~{len(trace) * 84 * 8 / 1e6:.2f} Mbit once, at any rate you like)")

    # 4. Replay.  Every packet is legitimate; none of them is ever accepted.
    datapath.process_batch(trace.keys)
    print(f"after replay: {datapath!r}")

    # 5. The damage, through the calibrated cost model.
    model = CostModel()
    masks = datapath.n_masks
    print(f"\nmegaflow masks: {masks}  (paper: ~8200 for the full-blown attack)")
    print(f"victim throughput: {model.victim_gbps(1):.2f} Gbps -> "
          f"{model.victim_gbps(masks):.3f} Gbps "
          f"({100 * model.victim_fraction(masks):.1f}% of baseline; paper: 0.2%)")


if __name__ == "__main__":
    main()
