"""Unit tests for NIC offload profiles."""

import pytest

from repro.exceptions import SwitchError
from repro.switch.offload import FHO_TCP, GRO_OFF_TCP, GRO_ON_TCP, PROFILES, NicProfile, UDP_PROFILE


class TestProfiles:
    def test_registry_complete(self):
        assert set(PROFILES) == {
            "GRO OFF (TCP)", "GRO ON (TCP)", "FHO ON (TCP)", "UDP",
        }

    def test_fho_has_hardware_capacity(self):
        assert FHO_TCP.baseline_gbps == 30.0  # the paper's ~30 Gbps boost

    def test_gro_on_aggregates(self):
        """GRO buffers divide the classified packet rate by ~43x."""
        assert GRO_ON_TCP.unit_bytes / GRO_OFF_TCP.unit_bytes > 40

    def test_anchors_within_unit_interval(self):
        for profile in PROFILES.values():
            for masks, fraction in profile.anchors.items():
                assert masks >= 1
                assert 0 < fraction <= 1

    def test_udp_profile_unaffected_by_gro(self):
        assert UDP_PROFILE.unit_bytes < 2000  # never aggregated


class TestValidation:
    def test_bad_baseline(self):
        with pytest.raises(SwitchError):
            NicProfile(name="x", baseline_gbps=0, unit_bytes=1500)

    def test_bad_unit(self):
        with pytest.raises(SwitchError):
            NicProfile(name="x", baseline_gbps=1, unit_bytes=0)

    def test_bad_anchor(self):
        with pytest.raises(SwitchError):
            NicProfile(name="x", baseline_gbps=1, unit_bytes=1500, anchors={0: 0.5})
        with pytest.raises(SwitchError):
            NicProfile(name="x", baseline_gbps=1, unit_bytes=1500, anchors={10: 1.5})
