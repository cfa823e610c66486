"""Shared fixtures for the TSE reproduction test suite."""

from __future__ import annotations

import functools
import os

import pytest
from hypothesis import settings

from repro.classifier.actions import ALLOW
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.experiments import EXPERIMENTS
from tests import scan_oracle as scan_oracle_module
from tests import slowpath_oracle as slowpath_oracle_module
from tests.settlement_oracle import ride_along

# The nightly CI leg runs the property-based tests with a 10x example
# budget (HYPOTHESIS_PROFILE=nightly); interactive and per-PR runs keep
# hypothesis' stock budget so the suite stays fast.
settings.register_profile("nightly", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# The 3-bit HYP protocol of Fig. 1, mapped onto the top bits of ip_tos,
# and the 4-bit HYP2 onto the top bits of ip_ttl (see experiments.didactic).
HYP_SHIFT = 5
HYP_MASK = 0b111 << HYP_SHIFT
HYP2_SHIFT = 4
HYP2_MASK = 0b1111 << HYP2_SHIFT


def hyp(value: int) -> int:
    """3-bit HYP value -> ip_tos field value."""
    return value << HYP_SHIFT


def hyp2(value: int) -> int:
    """4-bit HYP2 value -> ip_ttl field value."""
    return value << HYP2_SHIFT


@pytest.fixture
def fig1_table() -> FlowTable:
    """The Fig. 1 flow table: allow HYP=001, DefaultDeny."""
    table = FlowTable(name="fig1")
    table.add_rule(Match(ip_tos=(hyp(0b001), HYP_MASK)), ALLOW, priority=10, name="allow-001")
    table.add_default_deny()
    return table


@pytest.fixture
def fig4_table() -> FlowTable:
    """The Fig. 4 two-field ACL: allow HYP=001; allow HYP2=1111; deny."""
    table = FlowTable(name="fig4")
    table.add_rule(Match(ip_tos=(hyp(0b001), HYP_MASK)), ALLOW, priority=20, name="allow-hyp")
    table.add_rule(Match(ip_ttl=(hyp2(0b1111), HYP2_MASK)), ALLOW, priority=10, name="allow-hyp2")
    table.add_default_deny()
    return table


@pytest.fixture
def settlement_oracle():
    """Check every settlement call of the test against the scalar loops."""
    with ride_along() as oracle:
        yield oracle


@pytest.fixture
def scan_oracle():
    """Check every megaflow scanner result of the test against Algorithm 1."""
    with scan_oracle_module.ride_along() as oracle:
        yield oracle


@pytest.fixture
def slowpath_oracle():
    """Check every generated megaflow of the test against the per-chunk walk."""
    with slowpath_oracle_module.ride_along() as oracle:
        yield oracle


@pytest.fixture(scope="session")
def golden_run():
    """``golden_run(id)``: experiment ``id`` at the parameters
    ``tests/test_golden.py`` pins, simulated once per session — the golden
    comparison and every paper-shape assertion read the same result."""
    from tests.test_golden import CASES

    return functools.cache(lambda experiment_id: EXPERIMENTS[experiment_id](**CASES[experiment_id]))
