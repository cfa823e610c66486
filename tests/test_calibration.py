"""Unit tests for cost-curve calibration against the paper's anchors."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import SwitchError
from repro.switch import calibration
from repro.switch.calibration import CurveParams, fit_profile
from repro.switch.offload import FHO_TCP, GRO_OFF_TCP, GRO_ON_TCP, NicProfile, UDP_PROFILE
from tests.calibration_oracle import XTOL, anchored_profiles, refit


class TestCommittedFits:
    """Every committed curve is the least-squares fit of its profile's anchors."""

    @pytest.mark.parametrize("profile", anchored_profiles(), ids=lambda p: p.name)
    def test_committed_curve_is_the_refit_within_xtol(self, profile):
        committed = np.array(dataclasses.astuple(fit_profile(profile)))
        fitted = np.array(dataclasses.astuple(refit(profile)))
        assert np.linalg.norm(committed - fitted) <= XTOL * (XTOL + np.linalg.norm(fitted))

    def test_every_committed_curve_belongs_to_an_anchored_profile(self):
        assert set(calibration._FITS) == {tuple(sorted(p.anchors.items())) for p in anchored_profiles()}

    def test_a_moved_anchor_without_its_curve_is_refused(self):
        moved = dataclasses.replace(GRO_OFF_TCP, anchors={**GRO_OFF_TCP.anchors, 17: 0.54})
        with pytest.raises(SwitchError, match=re.escape(GRO_OFF_TCP.name)):
            fit_profile(moved)


def test_import_repro_loads_no_scipy():
    """Counted in a fresh interpreter's ``sys.modules``, no clock."""
    src = Path(repro.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == []


class TestFitQuality:
    """The fitted curves must land on the paper's §5.4/§6.2 numbers."""

    @pytest.mark.parametrize("profile", [GRO_OFF_TCP, GRO_ON_TCP, FHO_TCP, UDP_PROFILE],
                             ids=lambda p: p.name)
    def test_anchor_errors_bounded(self, profile):
        params = fit_profile(profile)
        for masks, target in profile.anchors.items():
            assert params.fraction(masks) == pytest.approx(target, rel=0.12), (
                f"{profile.name} at {masks} masks"
            )

    def test_gro_off_headline_numbers(self):
        """§5.4: 53% at 17 masks, 10% at 260, 4.7% at 516, 0.2% at 8200."""
        params = fit_profile(GRO_OFF_TCP)
        assert params.fraction(17) == pytest.approx(0.53, abs=0.03)
        assert params.fraction(260) == pytest.approx(0.10, abs=0.01)
        assert params.fraction(8200) == pytest.approx(0.002, abs=0.0005)

    def test_fit_is_cached(self):
        assert fit_profile(GRO_OFF_TCP) is fit_profile(GRO_OFF_TCP)

    def test_profile_without_anchors_rejected(self):
        bare = NicProfile(name="bare", baseline_gbps=1.0, unit_bytes=1500)
        with pytest.raises(SwitchError, match="anchors"):
            fit_profile(bare)


class TestCurveShape:
    def test_monotone_decreasing(self):
        params = fit_profile(GRO_OFF_TCP)
        fractions = [params.fraction(m) for m in (1, 10, 100, 1000, 8200)]
        assert fractions == sorted(fractions, reverse=True)

    def test_fraction_at_one_mask_is_full(self):
        for profile in (GRO_OFF_TCP, GRO_ON_TCP, FHO_TCP, UDP_PROFILE):
            assert fit_profile(profile).fraction(1) == pytest.approx(1.0, abs=0.05)

    def test_zero_masks_treated_as_one(self):
        params = fit_profile(GRO_OFF_TCP)
        assert params.fraction(0) == params.fraction(1)

    def test_negative_masks_rejected(self):
        params = fit_profile(GRO_OFF_TCP)
        with pytest.raises(SwitchError):
            params.relative_cost(-1)

    def test_relative_cost_inverse_of_fraction(self):
        params = fit_profile(GRO_OFF_TCP)
        for masks in (17, 260, 8200):
            cost = params.relative_cost(masks)
            # fraction = min(1, baseline/cost): for degraded points they
            # are exact inverses (up to the a+b normalisation).
            assert params.fraction(masks) == pytest.approx(
                min(1.0, 1.0 / (cost * (params.a + params.b))), rel=1e-6
            )

    def test_step_models_microflow_thrash(self):
        """The GRO OFF curve needs the M>1 step for its steep first drop."""
        params = fit_profile(GRO_OFF_TCP)
        assert params.s > 0.1


class TestCurveParamsDirect:
    def test_manual_params(self):
        params = CurveParams(a=1.0, s=0.0, b=0.0, gamma=1.0)
        assert params.fraction(100) == 1.0
        assert params.relative_cost(100) == 1.0

    def test_linear_curve(self):
        params = CurveParams(a=0.0, s=0.0, b=1.0, gamma=1.0)
        assert params.relative_cost(10) == pytest.approx(10.0)
