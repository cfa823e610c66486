"""The megaflow backend spelled once: one base class, one name table, one config.

``MegaflowStore`` is the only definition of a backend, the two-row table
behind ``make_megaflow_backend`` the only way to pick one by name, and
``DatapathConfig`` the only place that choice is configured.  These tests
follow each name to every surface that reports it, hold the factory's
keywords to its signature, and build servers and fleet hosts from an
environment's datapath config.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.classifier.actions import DENY
from repro.classifier.adapter import TssCachedClassifier
from repro.classifier.backend import make_megaflow_backend, megaflow_backend_names
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule, Match
from repro.classifier.tss import TupleSpaceSearch
from repro.core.detector import tse_scan_cost_dilution
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.netsim.cloud import SYNTHETIC_ENV, Server
from repro.netsim.fleet import Fleet
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.executor import ThreadShardExecutor
from repro.switch.sharded import ShardedDatapath

BACKENDS = megaflow_backend_names()


@pytest.mark.parametrize("name", BACKENDS)
def test_name_reaches_every_surface(name):
    assert make_megaflow_backend(name).name == name
    datapath = Datapath(FlowTable(), DatapathConfig(megaflow_backend=name))
    assert datapath.snapshot().backend == name
    rules = [FlowRule(Match.any(), DENY, priority=-1, name="default")]
    classifier = TssCachedClassifier(rules, backend=make_megaflow_backend(name))
    assert classifier.name == f"{name}-cache"


@pytest.mark.parametrize("name", BACKENDS)
def test_misspelled_keyword_raises_instead_of_dropping_the_check(name):
    with pytest.raises(TypeError):
        make_megaflow_backend(name, check_invariant=True)
    assert make_megaflow_backend(name, check_invariants=True).check_invariants


def test_scan_kernel_is_accepted_by_every_backend():
    """The config passes ``scan_kernel`` whichever backend it names."""
    assert make_megaflow_backend("tuplechain", scan_kernel="cffi").scan_kernel_name == "none"
    assert make_megaflow_backend("tss", scan_kernel="numpy").scan_kernel_name == "numpy"


class _PricierProbes(TupleSpaceSearch):
    """A backend outside the table: a TSS whose probe costs three table probes."""

    def probe_unit_cost(self) -> float:
        return 3.0


def _detonated(cache) -> Datapath:
    datapath = Datapath(
        SIPDP.build_table(), DatapathConfig(microflow_capacity=0), megaflows=cache
    )
    trace = ColocatedTraceGenerator(datapath.flow_table, base={"ip_proto": PROTO_TCP}).generate()
    datapath.process_batch(list(trace.keys))
    return datapath


def test_dilution_on_a_subclassed_backend():
    """The clean comparison cache is the subclass itself, so its unit cost
    cancels: the dilution equals plain TSS's on the same contents."""
    plain = _detonated(TupleSpaceSearch())
    subclassed = _detonated(_PricierProbes())
    assert subclassed.megaflows.name == "tss"
    expected = tse_scan_cost_dilution(plain.megaflows, plain.flow_table)
    assert expected > 10
    got = tse_scan_cost_dilution(subclassed.megaflows, subclassed.flow_table)
    assert got == pytest.approx(expected)


def test_environment_datapath_config_builds_servers_and_fleet_hosts():
    environment = replace(
        SYNTHETIC_ENV,
        datapath=replace(SYNTHETIC_ENV.datapath, megaflow_backend="tuplechain", executor="thread"),
        n_pmd=2,
    )
    server = Server("s1", environment)
    fleet = Fleet(environment, n_racks=1, hosts_per_rack=1, tenants_per_host=4)
    try:
        for datapath in (server.datapath, fleet.host(0, 0).datapath):
            assert isinstance(datapath, ShardedDatapath)
            assert isinstance(datapath.executor, ThreadShardExecutor)
            assert [shard.megaflows.name for shard in datapath.shards] == ["tuplechain"] * 2
            assert [s.backend for s in datapath.executor.call_all("snapshot")] == ["tuplechain"] * 2
    finally:
        server.close()
        fleet.close()
