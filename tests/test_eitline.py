import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from holomem import eitline
from conftest import BUNDLED

TWO_PI = 2.0 * math.pi
RABI = BUNDLED.eit.rabi_hz

# The grid the closed forms are checked on: Omega/2pi in MHz, gamma_gs in Hz
# (including the bundled value; 1e5 and 2e7 rad/s), optical depth.
RABI_MHZ = (1.0, 2.0, 4.0, 7.0, 10.0)
GAMMAS = (0.0, 1e5 / TWO_PI, BUNDLED.eit.gamma_gs_hz, 2e7 / TWO_PI)
ODS = (1.0, 10.0, 40.0)
GRID = [(r, g, od) for r in RABI_MHZ for g in GAMMAS for od in ODS]
# Each point's id gives gamma_gs in rad/s to 12 digits: the bundled value
# reads 3518150.88 rather than a 17-digit repr.
GRID_IDS = [f"{r!r}-{float(f'{TWO_PI * g:.12g}')!r}-{od!r}" for r, g, od in GRID]


def params(**overrides) -> eitline.EitParams:
    """The bundled scenario's line shape, with the given fields replaced."""
    return dataclasses.replace(BUNDLED.eit, **overrides)


def reference_fwhm(p: eitline.EitParams) -> float:
    """The former numerical window width: a 20,001-point scan for the
    absorption floor, then brentq on the half-level crossing."""
    t0 = eitline.transmission(p, 0.0)
    grid = np.linspace(0.0, 3.0 * (p.rabi_hz + p.gamma_e_hz), 20001)
    tvals = eitline.transmission(p, grid)
    floor = float(tvals.min())
    half = floor + 0.5 * (t0 - floor)
    below = np.nonzero(tvals < half)[0]
    if below.size == 0:
        raise eitline.EitError("no half-maximum crossing found")
    i = below[0]
    delta_half = brentq(lambda d: eitline.transmission(p, d) - half, grid[i - 1], grid[i],
                        xtol=1e-4)
    return 2.0 * delta_half


def reference_group_delay(p: eitline.EitParams) -> float:
    """The former group delay: central difference of the phase in angular
    detuning, step Omega/1000."""
    h = p.rabi_hz / 1000.0
    return (eitline.phase(p, h) - eitline.phase(p, -h)) / (2.0 * TWO_PI * h)


def n_at_zero(p: eitline.EitParams) -> float:
    """N(0): the sign of dRe r/du at line centre (a dip exists iff > 0)."""
    g, k = p.gamma_gs_hz, p.gamma_e_hz / 2.0
    a, b = k * g + p.rabi_hz ** 2 / 4.0, k + g
    return k * a ** 2 - g * a * (b ** 2 - 2.0 * a)


class TestClosedForm:
    @pytest.mark.parametrize("rabi_mhz,gamma_gs,od", GRID, ids=GRID_IDS)
    def test_fwhm_matches_numerical_reference(self, rabi_mhz, gamma_gs, od):
        p = params(rabi_hz=rabi_mhz * 1e6, gamma_gs_hz=gamma_gs, od=od)
        try:
            expected = reference_fwhm(p)
        except eitline.EitError:
            with pytest.raises(eitline.EitError):
                eitline.transparency_fwhm(p)
            return
        assert eitline.transparency_fwhm(p) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("rabi_mhz", [1.0, 2.0])
    def test_no_dip_raises(self, rabi_mhz):
        p = params(rabi_hz=rabi_mhz * 1e6, gamma_gs_hz=2e7 / TWO_PI)
        with pytest.raises(eitline.EitError, match="no absorption dips"):
            eitline.transparency_fwhm(p)

    def test_dip_condition_is_sign_of_n0(self):
        # T rises monotonically away from line centre when N(0) <= 0.
        no_dip = params(rabi_hz=2e6, gamma_gs_hz=2e7 / TWO_PI)
        assert n_at_zero(no_dip) <= 0.0
        t = eitline.transmission(no_dip, np.linspace(0.0, 10 * RABI, 2001))
        assert np.all(np.diff(t) >= 0.0)
        with pytest.raises(eitline.EitError):
            eitline.transparency_fwhm(no_dip)
        assert n_at_zero(params()) > 0.0

    def test_vanishing_dip_fails_cleanly(self):
        # Approach the N(0) = 0 boundary in gamma_gs at Omega/2pi = 2 MHz: the
        # window narrows to zero, and once the dip is too shallow to resolve
        # a half level in floating point the error is still an EitError.
        rabi = 2e6
        lo, hi = 1e5 / TWO_PI, 2e7 / TWO_PI
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if n_at_zero(params(rabi_hz=rabi, gamma_gs_hz=mid)) > 0.0:
                lo = mid
            else:
                hi = mid
        widths = []
        for eps in (1e-3, 1e-6, 1e-9, 1e-12, 0.0):
            p = params(rabi_hz=rabi, gamma_gs_hz=lo * (1.0 - eps))
            try:
                widths.append(eitline.transparency_fwhm(p))
            except eitline.EitError:
                widths.append(0.0)
        assert widths[0] > 0.0 and widths[-1] == 0.0
        assert widths == sorted(widths, reverse=True)

    @pytest.mark.parametrize("rabi_mhz,gamma_gs,od", GRID, ids=GRID_IDS)
    def test_group_delay_matches_central_difference(self, rabi_mhz, gamma_gs, od):
        p = params(rabi_hz=rabi_mhz * 1e6, gamma_gs_hz=gamma_gs, od=od)
        assert eitline.group_delay(p) == pytest.approx(reference_group_delay(p), rel=2e-4)

    def test_window_at_large_od(self):
        # T(0) and the floor underflow to 0 near OD 1e4; the half level is taken
        # in log space, where the window falls as 1/sqrt(OD).
        ratio = eitline.transparency_fwhm(params(od=1e6)) / eitline.transparency_fwhm(params(od=1e4))
        assert ratio == pytest.approx(0.1, rel=1e-3)

    def test_group_delay_at_bundled_point(self):
        # The central-difference value the report carried before the closed form.
        assert eitline.group_delay(params()) == pytest.approx(1.421641491585849e-07, rel=1e-6)

    def test_group_delay_ideal_limit_exact(self):
        p = params(gamma_gs_hz=0.0)
        ideal = p.od * p.gamma_e_hz / (TWO_PI * p.rabi_hz ** 2)
        assert eitline.group_delay(p) == pytest.approx(ideal, rel=1e-12)


class TestTransmission:
    def test_control_off_two_level_limit(self):
        p = params(rabi_hz=0.0)
        assert eitline.transmission(p, 0.0) == pytest.approx(math.exp(-10.0), rel=1e-9)

    def test_perfect_transparency_without_decoherence(self):
        p = params(gamma_gs_hz=0.0)
        assert eitline.transmission(p, 0.0) == 1.0

    def test_bounded(self):
        p = params()
        deltas = np.linspace(-5 * RABI, 5 * RABI, 501)
        t = eitline.transmission(p, deltas)
        assert np.all(t >= 0.0) and np.all(t <= 1.0)

    def test_symmetric_in_detuning(self):
        p = params()
        deltas = np.linspace(0.0, 3 * RABI, 200)
        np.testing.assert_allclose(eitline.transmission(p, deltas),
                                   eitline.transmission(p, -deltas), atol=1e-14)

    def test_maximal_on_resonance(self):
        # gamma_gs well below Omega^2/Gamma: the peak sits at delta = 0.
        p = params(gamma_gs_hz=1e3 / TWO_PI)
        deltas = np.linspace(-2 * RABI, 2 * RABI, 801)
        t = eitline.transmission(p, deltas)
        assert eitline.transmission(p, 0.0) >= t.max() - 1e-12


class TestGroupDelay:
    def test_positive(self):
        for gamma_gs in (0.0, 1e4 / TWO_PI, BUNDLED.eit.gamma_gs_hz):
            assert eitline.group_delay(params(gamma_gs_hz=gamma_gs)) > 0.0

    def test_ideal_limit_value(self):
        p = params(gamma_gs_hz=0.0)
        ideal = p.od * p.gamma_e_hz / (TWO_PI * p.rabi_hz ** 2)
        assert eitline.group_delay(p) == pytest.approx(ideal, rel=0.05)

    def test_rabi_scaling(self):
        p1 = params(gamma_gs_hz=0.0)
        p2 = params(gamma_gs_hz=0.0, rabi_hz=2 * RABI)
        assert eitline.group_delay(p1) / eitline.group_delay(p2) == pytest.approx(4.0, rel=0.05)

    def test_od_scaling(self):
        p1 = params(gamma_gs_hz=0.0)
        p2 = params(gamma_gs_hz=0.0, od=20.0)
        assert eitline.group_delay(p2) / eitline.group_delay(p1) == pytest.approx(2.0, rel=0.05)

    def test_requires_control_field(self):
        with pytest.raises(eitline.EitError):
            eitline.group_delay(params(rabi_hz=0.0))


class TestCalibration:
    def test_window_matches_measured_value(self):
        # Shipped calibration: 2.2 MHz within 25% (it lands much closer).
        fwhm = eitline.transparency_fwhm(params())
        assert fwhm == pytest.approx(2.2e6, rel=0.25)
        assert fwhm == pytest.approx(2.2e6, rel=0.01)

    def test_delay_matches_measured_value(self):
        assert eitline.group_delay(params()) == pytest.approx(160e-9, rel=0.25)

    def test_calibration_is_the_root_of_the_signed_mismatch(self):
        def mismatch(log_gamma):
            p = params(gamma_gs_hz=math.exp(log_gamma))
            return eitline.transparency_fwhm(p) - 2.2e6

        # From 1 rad/s to 1 MHz.
        root = brentq(mismatch, -math.log(TWO_PI), math.log(1e6), xtol=1e-13, rtol=1e-15)
        # The bundled value came from a search stopped at xatol 1e-3 in log gamma.
        assert abs(root - math.log(BUNDLED.eit.gamma_gs_hz)) <= 1e-3

    def test_fwhm_increases_with_rabi(self):
        widths = [eitline.transparency_fwhm(params(rabi_hz=r * RABI))
                  for r in (0.8, 1.0, 1.3, 1.7)]
        assert widths == sorted(widths)


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(eitline.EitError):
            params(od=0.0)
        with pytest.raises(eitline.EitError):
            params(rabi_hz=-1.0)
        with pytest.raises(eitline.EitError):
            params(gamma_gs_hz=-1.0)
        with pytest.raises(eitline.EitError):
            eitline.transparency_fwhm(params(rabi_hz=0.0))

    def test_rejects_rates_whose_product_overflows(self):
        # Each rate is finite, but the line shape's (Gamma/2) gamma_gs is not.
        with pytest.raises(eitline.EitError, match="decay times ground-state decoherence"):
            params(gamma_gs_hz=1e303)

    @pytest.mark.parametrize("field", ["od", "rabi_hz", "gamma_e_hz", "gamma_gs_hz"])
    def test_rejects_nan(self, field):
        with pytest.raises(eitline.EitError):
            params(**{field: math.nan})

    @pytest.mark.parametrize("field,name", [("od", "optical depth"),
                                            ("gamma_e_hz", "excited-state decay")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_rejects_infinite(self, field, name, value):
        with pytest.raises(eitline.EitError, match=f"{name} must be finite and positive"):
            params(**{field: value})
