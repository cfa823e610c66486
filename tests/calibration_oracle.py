"""The least-squares fit the committed cost curves come from.

:mod:`repro.switch.calibration` holds each profile's fitted ``CurveParams``
as literals and runs no optimiser.  This is the fit itself, the oracle
those literals are held to (``tests/test_calibration.py``): it fits
``fraction(P) = min(1, 1/(a + s·[P>1] + b·P^γ))`` in log space to a
profile's anchors with ``scipy.optimize.least_squares``, so relative
errors stay balanced across four orders of magnitude.  After moving or
adding anchors, commit the ``repr`` this prints::

    PYTHONPATH=src python -m tests.calibration_oracle
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from repro.exceptions import SwitchError
from repro.netsim import cloud
from repro.switch import offload
from repro.switch.calibration import CurveParams
from repro.switch.offload import NicProfile

# The fit's relative step tolerance: it stops once a step moves the
# parameter vector by less than XTOL * (XTOL + |x|).
XTOL = 1e-12


def _fit(anchor_masks: tuple[int, ...], anchor_fractions: tuple[float, ...]) -> CurveParams:
    masks = np.asarray(anchor_masks, dtype=float)
    targets = np.asarray(anchor_fractions, dtype=float)
    step_active = (masks > 1).astype(float)

    def residuals(params: np.ndarray) -> np.ndarray:
        a, s, b, gamma = params
        pred = np.minimum(1.0, 1.0 / (a + s * step_active + b * masks**gamma))
        return np.log(pred) - np.log(targets)

    result = least_squares(
        residuals,
        x0=np.array([0.9, 0.3, 0.05, 1.1]),
        # gamma may go well below 1: software-offload units (GRO buffers)
        # amortise the scan over large copies, flattening the curve.
        bounds=(np.array([1e-9, 0.0, 1e-9, 0.4]), np.array([10.0, 5.0, 10.0, 2.0])),
        xtol=XTOL,
        ftol=1e-12,
    )
    if not result.success:
        raise SwitchError(f"cost-curve fit failed: {result.message}")
    a, s, b, gamma = result.x
    return CurveParams(a=float(a), s=float(s), b=float(b), gamma=float(gamma))


def refit(profile: NicProfile) -> CurveParams:
    """The least-squares fit of ``profile``'s anchors."""
    masks, fractions = zip(*sorted(profile.anchors.items()))
    return _fit(masks, fractions)


def anchored_profiles() -> list[NicProfile]:
    """Every anchored ``NicProfile`` the modules that define profiles hold, once each."""
    found = {
        id(value): value
        for module in (offload, cloud)
        for value in vars(module).values()
        if isinstance(value, NicProfile) and value.anchors
    }
    return list(found.values())


if __name__ == "__main__":
    for profile in anchored_profiles():
        print(f"# {profile.name}\n{tuple(sorted(profile.anchors.items()))}: {refit(profile)!r},")
