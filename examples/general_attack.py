#!/usr/bin/env python3
"""General TSE: attacking an *unknown* ACL with random packets (§6).

No co-location, no knowledge of the installed policies — just random
values in the header fields cloud ACLs typically match on.  The script
compares the measured mask growth against the paper's analytic expectation
(Eq. 2 with the §11.3 convolution), then shows the throughput damage, and
finally exports the trace as a replayable pcap.

Run:  python examples/general_attack.py
"""

import tempfile
from pathlib import Path

from repro import CostModel, Datapath, DatapathConfig, GeneralTraceGenerator, expected_masks
from repro.core import SIPDP
from repro.packet.headers import PROTO_TCP


def main() -> None:
    # The victim's ACL — the attacker never sees this object.
    table = SIPDP.build_table()
    widths = SIPDP.field_widths()
    print(f"target: a hidden {SIPDP.name} ACL (fields {SIPDP.allow_fields}, "
          f"widths {widths})")

    # The attacker only guesses *which fields* matter (source IP and
    # destination port are what OpenStack/Kubernetes policies can filter).
    generator = GeneralTraceGenerator(
        fields=("ip_src", "tp_dst"), base={"ip_proto": PROTO_TCP}, seed=7
    )
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    model = CostModel()

    print(f"\n{'packets':>8} {'masks (measured)':>17} {'masks (Eq. 2)':>14} "
          f"{'victim Gbps':>12}")
    sent = 0
    for checkpoint in (100, 1000, 5000, 20000, 50000):
        datapath.process_batch(list(generator.keys(checkpoint - sent)))
        sent = checkpoint
        expectation = expected_masks(widths, checkpoint)
        print(f"{checkpoint:8d} {datapath.n_masks:17d} {expectation:14.1f} "
              f"{model.victim_gbps(datapath.n_masks):12.3f}")

    print("\npaper (§6.2): ~122 masks at 50k packets for SipDp, reducing GRO OFF "
          "capacity to 12%")

    # Export a 1000-packet trace as pcap — what the paper replays at the
    # switch (§5.4: "replaying a pcap file").
    trace = generator.generate(1000)
    pcap_path = Path(tempfile.gettempdir()) / "general_tse_trace.pcap"
    count = trace.to_pcap(pcap_path, rate_pps=1000)
    print(f"\nwrote {count} attack packets to {pcap_path} "
          f"({pcap_path.stat().st_size} bytes, replay at 1000 pps = 0.67 Mbps)")


if __name__ == "__main__":
    main()
