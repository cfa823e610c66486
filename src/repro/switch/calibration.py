"""The cost curves, least-squares fitted to the paper's anchors and committed.

We cannot measure the authors' Xeon/X710/CX-4 testbed, so the absolute
cycles-per-lookup constants are fitted: for each NIC profile the relative
throughput is modelled as

    fraction(P) = min(1, 1 / (a + s*[P > 1] + b * P**gamma))

where ``P`` is the expected full-scan cost of the megaflow cache in
**normalised probe units** — calibrated single-table probes, the currency
of the probe-native cost plane (see
:meth:`repro.classifier.backend.MegaflowStore.expected_scan_cost`).
The paper's anchors are measured on Tuple Space Search, where one probe
unit is one mask table and a full scan probes all of them, so for TSS
``P`` *is* the mask count — the mask-count reading of these curves is the
TSS special case, not a different parameterisation.  The terms have a
mechanistic reading:

* ``a`` — mask-independent per-unit cost (I/O, parsing, a microflow hit);
* ``s`` — the *microflow-thrash step*: at baseline the victim's packets hit
  the exact-match cache, but any attack traffic (with its randomized noise
  fields, §5.2) exhausts it, demoting the victim to the megaflow path.
  This one-off penalty explains the steep first drop the paper reports
  (53% of baseline at just 17 masks);
* ``b * M**gamma`` — the TSS linear mask scan, with a mild super-linearity
  (``gamma`` ≈ 1.0–1.3) capturing CPU-cache misses at thousands of masks.

Each profile's parameters were fitted in log space to the anchor points
it carries (:mod:`repro.switch.offload`, :mod:`repro.netsim.cloud`), so
relative errors stay balanced across four orders of magnitude.  The fits
are committed here as literals, the fit's own bits, keyed by the sorted
anchors: :func:`fit_profile` is a lookup and runs no optimiser.  The
least-squares fit is the oracle (``tests/calibration_oracle.py``), which
``tests/test_calibration.py`` re-runs on every anchored profile, so an
anchor moved without its literal, or a literal that drifts from the
re-fit, fails there.  README's probe-units paragraph (*Cost model: the
probe-native cost plane*) says what scan cost the curves take.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SwitchError
from repro.switch.offload import NicProfile

__all__ = ["CurveParams", "fit_profile"]


@dataclass(frozen=True)
class CurveParams:
    """Fitted parameters of ``fraction(P) = min(1, 1/(a + s·[P>1] + b·P^γ))``.

    ``P`` is a full-scan cost in normalised probe units; for TSS (where
    the anchors were measured) it equals the mask count, so the
    mask-count call sites are exact special cases, not approximations.
    """

    a: float
    s: float
    b: float
    gamma: float

    def relative_cost(self, probe_units: float) -> float:
        """Per-unit classification cost at full-scan cost ``probe_units``.

        Normalised to cost(one probe) = 1 — the single-mask baseline.
        The curve already embeds the victim's average hit position in the
        scan, so callers pass the *full*-scan cost, not a per-hit mean.
        """
        if probe_units < 0:
            raise SwitchError(f"probe cost must be >= 0, got {probe_units}")
        probe_units = max(probe_units, 1.0)  # an empty cache costs one probe
        step = self.s if probe_units > 1 else 0.0
        return (self.a + step + self.b * probe_units**self.gamma) / (self.a + self.b)

    def fraction(self, probe_units: float) -> float:
        """Fraction of baseline throughput at full-scan cost ``probe_units``."""
        probe_units = max(probe_units, 1.0) if probe_units >= 0 else _raise_negative(probe_units)
        step = self.s if probe_units > 1 else 0.0
        return min(1.0, 1.0 / (self.a + step + self.b * probe_units**self.gamma))


def _raise_negative(probe_units: float) -> float:
    raise SwitchError(f"probe cost must be >= 0, got {probe_units}")


# The committed fits (``tests/calibration_oracle.py`` prints a re-fit's repr),
# keyed by each profile's sorted anchor items.
_FITS: dict[tuple[tuple[int, float], ...], CurveParams] = {
    # GRO OFF (TCP)
    ((1, 1.0), (17, 0.53), (260, 0.1), (516, 0.047), (8200, 0.002)): CurveParams(
        a=0.9875129245456928, s=0.5469835318333778, b=0.01248707545430513, gamma=1.175989683525201),
    # GRO ON (TCP)
    ((1, 1.0), (17, 0.97), (260, 0.95), (516, 0.76), (8200, 0.039)): CurveParams(
        a=0.14931230348005192, s=0.045873387525874144, b=0.0009699666298012164, gamma=1.1290419433796008),
    # FHO ON (TCP)
    ((1, 1.0), (17, 0.88), (260, 0.43), (516, 0.29), (8200, 0.021)): CurveParams(
        a=0.7833096964487559, s=0.2943767008007077, b=0.003221758514855836, gamma=1.0624757571844117),
    # UDP
    ((1, 1.0), (16, 0.6), (122, 0.158), (581, 0.0325), (8200, 0.002)): CurveParams(
        a=0.7815932088017695, s=0.2745185493394175, b=0.03046010264434422, gamma=1.0776345070317666),
    # Kubernetes virtio (TCP)
    ((1, 1.0), (2, 0.94), (1000, 0.55), (8209, 0.33)): CurveParams(
        a=0.7629808773591681, s=0.24673395177150037, b=0.04002548445366402, gamma=0.4351085648419154),
}


def fit_profile(profile: NicProfile) -> CurveParams:
    """The committed cost curve fitted to ``profile``'s anchors.

    Raises :class:`SwitchError` naming the profile when it has no anchors,
    or anchors no committed fit was made from: a curve fitted to other
    anchors is never returned.
    """
    fit = _FITS.get(tuple(sorted(profile.anchors.items())))
    if fit is None:
        raise SwitchError(f"{profile.name}: no committed cost-curve fit for anchors {dict(profile.anchors)}")
    return fit
