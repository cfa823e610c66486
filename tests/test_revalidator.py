"""Unit tests for the revalidator (idle eviction + flow-limit pressure)."""

import pytest

from repro.classifier.actions import ALLOW
from repro.classifier.backend import megaflow_backend_names
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.packet.fields import FlowKey
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.revalidator import REVALIDATE_UNITS_PER_ENTRY, Revalidator


# The revalidator drives caches through the MegaflowStore surface only
# (n_megaflows / evict_idle / entries / kill_entries), so every test in this
# module runs over each backend in the name table.
@pytest.fixture(params=megaflow_backend_names())
def datapath(request) -> Datapath:
    table = FlowTable()
    table.add_rule(Match(ip_proto=6, tp_dst=80), ALLOW, priority=10, name="allow")
    table.add_default_deny()
    return Datapath(table, DatapathConfig(microflow_capacity=0, megaflow_backend=request.param))


class TestSweeps:
    def test_tick_respects_period(self, datapath):
        revalidator = Revalidator(datapath)
        datapath.process(FlowKey(ip_proto=6, tp_dst=80), now=0.0)
        assert revalidator.tick(0.5) == []  # before first scheduled sweep
        revalidator.tick(1.0)
        assert revalidator.stats.sweeps == 1
        revalidator.tick(1.5)  # too early for the next one
        assert revalidator.stats.sweeps == 1

    def test_idle_entries_evicted_after_timeout(self, datapath):
        revalidator = Revalidator(datapath)
        datapath.process(FlowKey(ip_proto=6, tp_dst=80), now=0.0)
        assert revalidator.sweep(9.0) == []  # not yet idle long enough
        evicted = revalidator.sweep(10.0)
        assert len(evicted) == 1
        assert revalidator.stats.evicted_idle == 1

    def test_active_entries_survive(self, datapath):
        revalidator = Revalidator(datapath)
        key = FlowKey(ip_proto=6, tp_dst=80)
        for t in range(0, 30, 5):
            datapath.process(key, now=float(t))
            assert revalidator.sweep(float(t)) == []
        assert datapath.n_megaflows == 1


class TestFlowLimitPressure:
    @pytest.mark.parametrize("backend", megaflow_backend_names())
    def test_lru_evicted_above_limit(self, backend):
        from tests.tracegen_oracle import bit_inversion_list

        table = FlowTable()
        table.add_rule(Match(tp_dst=80), ALLOW, priority=10, name="allow")
        table.add_default_deny()
        datapath = Datapath(
            table,
            DatapathConfig(
                microflow_capacity=0, max_megaflows=1000, megaflow_backend=backend
            ),
        )
        revalidator = Revalidator(datapath)
        # Distinct megaflows: one per inverted bit of the allowed value.
        for i, value in enumerate(bit_inversion_list(80, 16)[1:6]):
            datapath.process(FlowKey(ip_proto=6, tp_dst=value), now=float(i))
        # Shrink the limit mid-flight (models revalidator pressure).
        datapath.config = DatapathConfig(
            microflow_capacity=0, max_megaflows=3
        )
        revalidator.sweep(now=5.0)
        assert datapath.n_megaflows == 3
        assert revalidator.stats.evicted_limit == 2
        # The oldest (LRU) entries went first.
        remaining = sorted(e.last_used for e in datapath.megaflows.entries())
        assert remaining == [2.0, 3.0, 4.0]

    def test_work_units_accounting(self, datapath):
        revalidator = Revalidator(datapath)
        datapath.process(FlowKey(ip_proto=6, tp_dst=80), now=0.0)
        revalidator.sweep(1.0)
        assert revalidator.stats.work_units == REVALIDATE_UNITS_PER_ENTRY
