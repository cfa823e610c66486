"""Unit tests for the attack planner (§7 exposure reasoning)."""

import pytest

from repro.core.planner import plan_colocated, plan_for_cms, plan_general
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import DP, SIPDP, SIPSPDP
from repro.exceptions import ExperimentError
from repro.netsim.cms import BACKENDS
from repro.packet.headers import PROTO_TCP


class TestColocatedPlans:
    def test_packet_counts_match_real_traces(self):
        """The plan's trace size equals the generator's actual output."""
        for scenario in (DP, SIPDP, SIPSPDP):
            plan = plan_colocated(scenario)
            table = scenario.build_table()
            trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
            assert plan.packets == len(trace), scenario.name
            assert plan.masks == trace.expected_masks

    def test_paper_headline_bandwidth(self):
        """§1: ~1000 packets at 1000 pps ≈ 0.67 Mbps tears down OVS."""
        plan = plan_colocated(SIPDP)
        assert plan.attack_mbps == pytest.approx(0.67, abs=0.01)

    def test_victim_fraction_from_curve(self):
        plan = plan_colocated(SIPSPDP)
        assert plan.victim_fraction < 0.01  # the 0.2% story

    def test_accepts_names(self):
        assert plan_colocated("sipdp").use_case is SIPDP

    def test_validation(self):
        with pytest.raises(ExperimentError):
            plan_colocated("no-such-use-case")


class TestGeneralPlans:
    def test_expectation_matches_analysis(self):
        from repro.core.analysis import expected_masks

        plan = plan_general(SIPDP, packets=50000)
        assert plan.masks == pytest.approx(expected_masks((16, 32), 50000))

    def test_general_needs_more_packets(self):
        co = plan_colocated(SIPDP)
        general = plan_general(SIPDP, packets=co.packets)
        assert general.masks < co.masks  # same budget, fewer masks (§6.2)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            plan_general(DP, packets=-1)


class TestCmsExposure:
    def test_openstack_capped_at_sipdp(self):
        plans = plan_for_cms(BACKENDS["openstack"])
        cases = {plan.use_case.name for plan in plans}
        assert "SipSpDp" not in cases
        assert "SipDp" in cases

    def test_calico_admits_full_attack(self):
        plans = plan_for_cms(BACKENDS["calico"])
        assert any(plan.use_case.name == "SipSpDp" for plan in plans)

    def test_sorted_strongest_first(self):
        plans = plan_for_cms(BACKENDS["calico"])
        fractions = [plan.victim_fraction for plan in plans]
        assert fractions == sorted(fractions)

    def test_summary_renders(self):
        plan = plan_colocated(DP)
        text = plan.summary()
        assert "Dp" in text
        assert "masks" in text
