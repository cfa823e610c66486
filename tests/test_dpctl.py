"""Unit tests for the ovs-dpctl-style introspection."""

import pytest

from repro.classifier.backend import megaflow_backend_names
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import DP, SIPDP
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.dpctl import dump_flows, format_flow, mask_histogram, show
from repro.switch.rss import RssDispatcher
from repro.switch.sharded import ShardedDatapath


# dpctl renders the protocol surface (entries / masks / counters /
# memory_bytes), never TupleSpaceSearch internals, so the attacked-cache
# rendering tests run over every registered backend.
@pytest.fixture(params=megaflow_backend_names())
def attacked(request):
    table = SIPDP.build_table()
    datapath = Datapath(
        table,
        DatapathConfig(microflow_capacity=0, megaflow_backend=request.param),
    )
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    for key in trace.keys:
        datapath.process(key)
    return datapath


class TestShow:
    def test_mask_total_is_the_figure_of_merit(self, attacked):
        text = show(attacked)
        assert "total:513" in text  # the SipDp ceiling
        assert "flows: 529" in text

    def test_lookup_counters(self, attacked):
        text = show(attacked)
        assert "lookups:" in text
        assert "missed:" in text

    def test_slow_path_counters(self, attacked):
        """The upcall-pressure line renders the slow-path stats verbatim."""
        stats = attacked.stats
        assert (
            f"slow path: upcalls:{stats.upcalls} installs:{stats.installs} "
            f"rejected:{stats.install_rejected} dead:{stats.dead_entry_suppressed}"
        ) in show(attacked)
        assert stats.upcalls > 0

    def test_slow_path_counters_per_pmd(self):
        """Sharded ``show`` carries the slow path line on every pmd line."""
        from repro.switch.sharded import ShardedDatapath

        table = SIPDP.build_table()
        datapath = ShardedDatapath(
            table, DatapathConfig(microflow_capacity=0), n_shards=2
        )
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        datapath.process_batch(list(trace.keys))
        pmd_lines = [line for line in show(datapath).splitlines() if "pmd queue" in line]
        assert len(pmd_lines) == 2
        assert all("slow path: upcalls:" in line for line in pmd_lines)

    def test_microflow_line_optional(self):
        table = DP.build_table()
        with_emc = Datapath(table)
        assert "microflows:" in show(with_emc)
        without = Datapath(table, DatapathConfig(microflow_capacity=0))
        assert "microflows:" not in show(without)


def _sipdp_keys(table):
    return list(ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate().keys)


# ``show`` text pinned byte for byte on four states: what an operator reads
# must not move when the renderer's plumbing does.
SHOW_DETONATED = """\
datapath@repro:
  lookups: hit:0 missed:529 total:529
  flows: 529
  masks: hit:135696 total:513 hit/pkt:228.83
  probes: scans:529 spent:135696 scan cost:513.0 unit:1.00
  slow path: upcalls:529 installs:529 rejected:0 dead:0
  backend: tss masks:513 scan cost:513.0
  migration: idle
  cache usage: 0.40 MB
  microflows: 256/256 (hit rate 11%)"""

SHOW_REBALANCED = """\
datapath@repro:
  lookups: hit:0 missed:529 total:529
  flows: 529
  masks: hit:92046 total:513 hit/pkt:174.00
  mask tables: 522 across 2 pmds
  pmd executor: serial, kernel=numpy
  scan cost: 270.0 probe units (worst pmd)
  cache usage: 0.41 MB
  rebalance: remaps:1 (last at 1.500s) moved:254 salt:0x2545f491
  pmd queue 0: flows: 274; lookups: hit:0 missed:414 total:414; \
masks: hit:85491 total:270 hit/pkt:206.50; \
probes: scans:414 spent:85491 scan cost:270.0 unit:1.00; \
slow path: upcalls:414 installs:414 rejected:0 dead:0; \
backend: tss masks:270 scan cost:270.0; migration: idle
  pmd queue 1: flows: 255; lookups: hit:0 missed:115 total:115; \
masks: hit:6555 total:252 hit/pkt:57.00; \
probes: scans:115 spent:6555 scan cost:252.0 unit:1.00; \
slow path: upcalls:115 installs:115 rejected:0 dead:0; \
backend: tss masks:252 scan cost:252.0; migration: idle"""

SHOW_REBUILDING = """\
datapath@repro:
  lookups: hit:0 missed:529 total:529
  flows: 529
  masks: hit:135696 total:513 hit/pkt:256.51
  probes: scans:529 spent:135696 scan cost:513.0 unit:1.00
  slow path: upcalls:529 installs:529 rejected:0 dead:0
  backend: tss masks:513 scan cost:513.0
  migration: rebuilding -> tuplechain 85% (256 copied, 229 replayed)
  cache usage: 0.40 MB"""

SHOW_SWAPPED = """\
datapath@repro:
  lookups: hit:16 missed:529 total:545
  flows: 529
  masks: hit:135832 total:513 hit/pkt:249.23
  probes: scans:0 spent:0 scan cost:60.0 unit:1.00
  slow path: upcalls:529 installs:529 rejected:0 dead:0
  backend: tuplechain masks:513 scan cost:60.0
  migration: swapped x1 (last at 3.125s)
  cache usage: 0.40 MB"""


class TestShowPinned:
    def test_detonated_datapath_with_microflows(self):
        table = SIPDP.build_table()
        keys = _sipdp_keys(table)
        datapath = Datapath(table, DatapathConfig(scan_kernel="numpy"))
        for i, key in enumerate(keys):
            datapath.process(key, now=i * 0.001)
        for key in keys[-64:]:
            datapath.process(key)
        assert show(datapath) == SHOW_DETONATED

    def test_two_shards_after_one_rebalance(self):
        table = SIPDP.build_table()
        datapath = ShardedDatapath(table, DatapathConfig(scan_kernel="numpy"), n_shards=2)
        datapath.process_batch(_sipdp_keys(table), now=1.5)
        datapath.rebalance(RssDispatcher(2, salt=0x2545F491))
        assert show(datapath) == SHOW_REBALANCED

    def test_mid_rebuild_then_swapped(self):
        table = SIPDP.build_table()
        keys = _sipdp_keys(table)
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0, scan_kernel="numpy"))
        datapath.process_batch(keys[:300], now=2.0)
        datapath.migrate_backend_start("tuplechain", slice_size=128)
        datapath.migrate_backend_step()
        datapath.process_batch(keys[300:], now=2.25)
        datapath.migrate_backend_step()
        assert show(datapath) == SHOW_REBUILDING
        datapath.process_batch(keys[:16], now=3.125)
        datapath.migrate_backend_swap()  # finishes the copy first
        assert show(datapath) == SHOW_SWAPPED


class TestDumpFlows:
    def test_one_line_per_flow(self, attacked):
        lines = dump_flows(attacked).splitlines()
        assert len(lines) == attacked.n_megaflows

    def test_truncation(self, attacked):
        lines = dump_flows(attacked, max_flows=10).splitlines()
        assert len(lines) == 11
        assert "more" in lines[-1]

    def test_flow_rendering(self):
        table = DP.build_table()
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        verdict = datapath.process(FlowKey(ip_proto=PROTO_TCP, tp_dst=80))
        line = format_flow(verdict.installed)
        assert "ip_proto=6" in line
        assert "tp_dst=80" in line
        assert "actions:allow" in line

    def test_deny_rendering_with_prefix(self):
        table = DP.build_table()
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        verdict = datapath.process(FlowKey(ip_proto=PROTO_TCP, tp_dst=0x8000 | 80))
        line = format_flow(verdict.installed)
        assert "actions:drop" in line
        assert "/" in line  # partially-wildcarded port renders value/mask

    def test_ip_rendering_cidr(self):
        table = SIPDP.build_table()
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        datapath.process(
            FlowKey(ip_proto=PROTO_TCP, ip_src=0x0A000001, tp_src=1, tp_dst=81)
        )
        text = dump_flows(datapath)
        assert "ip_src=10.0.0.1" in text


class TestHistogram:
    def test_staircase_shape(self, attacked):
        histogram = mask_histogram(attacked)
        assert sum(histogram.values()) == attacked.n_masks
        # The TSE staircase: many distinct wildcard levels.
        assert len(histogram) > 20

    def test_empty(self):
        datapath = Datapath(DP.build_table())
        assert mask_histogram(datapath) == {}


class TestExecutorLine:
    def test_renders_transport_and_kernel(self):
        from repro.classifier.kernel import resolve_scan_kernel_name
        from repro.switch.sharded import ShardedDatapath

        table = SIPDP.build_table()
        datapath = ShardedDatapath(
            table,
            DatapathConfig(microflow_capacity=0, executor="process"),
            n_shards=2,
        )
        try:
            text = show(datapath)
            kernel = resolve_scan_kernel_name("auto")
            assert f"pmd executor: process[2 workers]/shm, kernel={kernel}" in text
        finally:
            datapath.close()

    def test_renders_numpy_kernel_when_selected(self):
        from repro.switch.sharded import ShardedDatapath

        table = SIPDP.build_table()
        datapath = ShardedDatapath(
            table,
            DatapathConfig(microflow_capacity=0, scan_kernel="numpy"),
            n_shards=2,
        )
        assert "pmd executor: serial, kernel=numpy" in show(datapath)

    def test_kernelless_backend_renders_none(self):
        from repro.switch.sharded import ShardedDatapath

        backends = [b for b in megaflow_backend_names() if b != "tss"]
        if not backends:
            pytest.skip("only the tss backend is registered")
        table = SIPDP.build_table()
        datapath = ShardedDatapath(
            table,
            DatapathConfig(microflow_capacity=0, megaflow_backend=backends[0]),
            n_shards=2,
        )
        assert "kernel=none" in show(datapath)
