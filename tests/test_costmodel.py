"""Unit tests for the throughput/CPU cost model."""

import pytest

from repro.exceptions import SwitchError
from repro.switch.costmodel import SLOW_PATH_MAX_CPU_PCT, CostModel, slow_path_cpu_pct
from repro.switch.offload import GRO_OFF_TCP, GRO_ON_TCP


class TestVictimThroughput:
    def test_baseline_at_one_mask(self):
        model = CostModel(profile=GRO_OFF_TCP, link_gbps=10.0)
        assert model.victim_gbps(1) == pytest.approx(10.0, rel=0.05)

    def test_paper_sipdp_collapse(self):
        """~500 masks -> ~4.7% of 10 Gbps (§5.4)."""
        model = CostModel(profile=GRO_OFF_TCP, link_gbps=10.0)
        assert model.victim_gbps(516) == pytest.approx(0.47, rel=0.15)

    def test_link_clamp(self):
        model = CostModel(profile=GRO_OFF_TCP, link_gbps=1.0)
        assert model.victim_gbps(1) == 1.0  # CPU could do 10G; the wire cannot

    def test_validation(self):
        with pytest.raises(SwitchError):
            CostModel(link_gbps=0)
        with pytest.raises(SwitchError):
            CostModel(upcall_units=-1)
        with pytest.raises(SwitchError):
            CostModel(attack_cost_scale=0)
        with pytest.raises(SwitchError):
            CostModel(revalidate_units_per_entry=-1)


class TestAttackCosts:
    def test_upcall_surcharge(self):
        model = CostModel(upcall_units=25.0)
        fast = model.attack_units_batch([100], upcall_count=0)
        slow = model.attack_units_batch([100], upcall_count=1)
        assert slow == pytest.approx(fast + 25.0)

    def test_attack_scale(self):
        base = CostModel(attack_cost_scale=1.0)
        scaled = CostModel(attack_cost_scale=0.5)
        assert scaled.attack_units_batch([100], upcall_count=0) == pytest.approx(
            base.attack_units_batch([100], upcall_count=0) / 2
        )

    def test_cost_grows_with_masks(self):
        model = CostModel()
        assert model.attack_units_batch([8200], upcall_count=0) > model.attack_units_batch([17], upcall_count=0)

    def test_revalidation_rate(self):
        model = CostModel(revalidate_units_per_entry=5.0)
        assert model.revalidation_units_per_sec(100, period=1.0) == 500.0
        assert model.revalidation_units_per_sec(100, period=2.0) == 250.0
        with pytest.raises(SwitchError):
            model.revalidation_units_per_sec(100, period=0)


class TestFlowCompletionTime:
    def test_fct_scales_with_masks(self):
        """Fig. 9a secondary axis: FCT grows with mask count."""
        model = CostModel(profile=GRO_OFF_TCP, link_gbps=10.0)
        fct_clean = model.flow_completion_seconds(1.0, 1)
        fct_dirty = model.flow_completion_seconds(1.0, 516)
        assert fct_clean == pytest.approx(0.8, rel=0.1)  # 8 Gbit at 10 Gbps
        assert fct_dirty > 15 * fct_clean

    def test_fct_validation(self):
        model = CostModel()
        with pytest.raises(SwitchError):
            model.flow_completion_seconds(0, 1)


class TestUnits:
    def test_budget_units(self):
        model = CostModel(profile=GRO_OFF_TCP)
        # 10 Gbps over 1500-byte units.
        assert model.budget_units_per_sec == pytest.approx(10e9 / 8 / 1500)

    def test_gro_on_units_are_buffers(self):
        model = CostModel(profile=GRO_ON_TCP)
        assert model.unit_bits == 65536 * 8


class TestSlowPathModel:
    def test_fig9c_anchors(self):
        assert slow_path_cpu_pct(100) == pytest.approx(15.0)
        assert slow_path_cpu_pct(1000) == pytest.approx(15.0)
        assert slow_path_cpu_pct(10000) == pytest.approx(80.0, abs=1.0)

    def test_saturation(self):
        assert slow_path_cpu_pct(1_000_000) == SLOW_PATH_MAX_CPU_PCT

    def test_monotone(self):
        rates = [10, 100, 1000, 5000, 10000, 50000]
        loads = [slow_path_cpu_pct(r) for r in rates]
        assert loads == sorted(loads)

    def test_negative_rate_rejected(self):
        with pytest.raises(SwitchError):
            slow_path_cpu_pct(-1)
