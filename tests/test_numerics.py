"""Special functions and quadrature against high-precision references.

Frozen literals were produced with mpmath at 50 significant digits;
scipy serves as a second, independent implementation on dense grids.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from dapalloc import numerics
from dapalloc.numerics import (
    ConvergenceError,
    erfc,
    erfcx,
    integrate_semi_infinite,
    lambert_w0_of_log,
)


class TestErfc:
    # mpmath, 50 digits
    ANCHORS = [
        (0.25, 0.7236736098317630670149),
        (0.5, 0.4795001221869534623173),
        (1.0, 0.1572992070502851306588),
        (2.0, 0.004677734981047265837931),
        (3.0, 2.209049699858544137278e-5),
        (4.0, 1.541725790028001885216e-8),
        (6.0, 2.151973671249891311659e-17),
        (10.0, 2.088487583762544757001e-45),
        (26.5, 2.210907664263734275929e-307),
    ]

    @pytest.mark.parametrize("x,want", ANCHORS)
    def test_anchors(self, x, want):
        assert erfc(x) == pytest.approx(want, rel=4e-15, abs=0)

    def test_negative_reflection(self):
        assert erfc(-1.0) == pytest.approx(1.842700792949714869341, rel=4e-15)
        xs = np.linspace(0.01, 5.0, 97)
        np.testing.assert_allclose(erfc(-xs) + erfc(xs), 2.0, rtol=0, atol=5e-15)

    def test_exact_endpoints(self):
        assert erfc(0.0) == 1.0
        assert erfc(40.0) == 0.0  # underflows cleanly, no warning
        assert erfc(math.inf) == 0.0
        assert erfc(-math.inf) == 2.0
        np.testing.assert_array_equal(erfc(np.array([np.inf, -np.inf])), [0.0, 2.0])

    def test_against_scipy_dense(self):
        xs = np.concatenate([np.linspace(-6, 6, 401), np.geomspace(1e-8, 26.0, 200)])
        np.testing.assert_allclose(erfc(xs), scipy.special.erfc(xs), rtol=2e-13)

    def test_array_shape_and_dtype(self):
        xs = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        out = erfc(xs)
        assert out.shape == (3, 4)
        assert out.dtype == np.float64
        assert isinstance(erfc(1.0), float)

    def test_float32_roundtrip(self):
        xs = np.asarray([0.5, 1.5], dtype=np.float32)
        assert erfc(xs).dtype == np.float32

    def test_int_array_is_read_as_float64(self):
        out = erfc(np.array([0, 1, 3]))
        assert out.dtype == np.float64
        assert out.tobytes() == erfc(np.array([0.0, 1.0, 3.0])).tobytes()


class TestErfcx:
    @pytest.mark.parametrize(
        "x,want",
        [
            (0.5, 0.6156903441929258748708),
            (1.0, 0.4275835761558070044108),
            (5.0, 0.1107046377330686263702),
            (10.0, 0.05614099274382258585752),
            (30.0, 0.01879588886141675149713),
            (100.0, 0.005641613782989432903556),
        ],
    )
    def test_anchors(self, x, want):
        assert erfcx(x) == pytest.approx(want, rel=4e-15, abs=0)

    def test_consistency_with_erfc(self):
        # erfcx(x) * e^{-x^2} must reproduce erfc(x) while both are representable
        xs = np.linspace(0.05, 6.0, 173)
        np.testing.assert_allclose(erfcx(xs) * np.exp(-(xs**2)), erfc(xs), rtol=3e-14)

    def test_asymptotic_tail(self):
        # erfcx(x) ~ 1/(x sqrt(pi)) for large x
        for x in (1e3, 1e6, 1e8):
            assert erfcx(x) * x * math.sqrt(math.pi) == pytest.approx(1.0, rel=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erfcx(-0.5)
        with pytest.raises(ValueError):
            erfcx(np.array([0.5, -0.1]))

    def test_against_scipy(self):
        xs = np.geomspace(1e-6, 1e8, 300)
        np.testing.assert_allclose(erfcx(xs), scipy.special.erfcx(xs), rtol=2e-13)


class TestLambertWOfLog:
    # both residual forms, from below exp's underflow to far past its overflow
    MPMATH_POINTS = np.concatenate(
        [np.linspace(-740.0, 5000.0, 1200), np.linspace(-40.0, 40.0, 600)]
    )

    @pytest.mark.parametrize(
        "log_x,want",
        [
            (0.0, 0.567143290409783873),
            (1.0, 1.0),
            (10.0, 7.929420095019697348562),
            (math.log(5.6e7), 15.1245434315799560504),
            (100.0, 95.44148664557583184017),
            (700.0, 693.4583088790254983367),
        ],
    )
    def test_anchors(self, log_x, want):
        assert lambert_w0_of_log(log_x) == pytest.approx(want, rel=2e-15)

    def test_round_trip(self):
        xs = np.geomspace(1e-9, 1e12, 200)
        w = lambert_w0_of_log(np.log(xs))
        np.testing.assert_allclose(w * np.exp(w), xs, rtol=1e-12)

    def test_against_scipy(self):
        xs = np.geomspace(1e-6, 1e10, 150)
        ref = scipy.special.lambertw(xs).real
        np.testing.assert_allclose(lambert_w0_of_log(np.log(xs)), ref, rtol=1e-12)

    def test_against_mpmath(self):
        log_x = self.MPMATH_POINTS
        with mpmath.workdps(60):
            ref = [float(mpmath.lambertw(mpmath.exp(mpmath.mpf(v))).real) for v in log_x]
        np.testing.assert_allclose(lambert_w0_of_log(log_x), ref, rtol=4.5e-16, atol=0)
        # e^log_x underflows to 0, and so does W
        assert lambert_w0_of_log(-746.0) == 0.0
        np.testing.assert_array_equal(lambert_w0_of_log(np.array([-800.0, -1e300])), 0.0)

    def test_array_equals_elementwise(self):
        """Each element converges on its own, so batching moves no bit."""
        spread = np.geomspace(1e-300, 1e300, 2001)
        log_x = np.concatenate([self.MPMATH_POINTS, spread, -spread])
        one_at_a_time = [lambert_w0_of_log(float(v)) for v in log_x]
        np.testing.assert_array_equal(lambert_w0_of_log(log_x), one_at_a_time)

    def test_defining_equation(self):
        """w + ln w = L, solved well past the overflow range of e^L."""
        for log_x in np.linspace(-3.0, 5000.0, 80):
            w = lambert_w0_of_log(log_x)
            assert w + math.log(w) == pytest.approx(log_x, abs=1e-9 * max(1.0, abs(log_x)))

    def test_matches_direct_form_when_representable(self):
        for log_x in (-2.0, 0.0, 3.0, 50.0):
            assert lambert_w0_of_log(log_x) == pytest.approx(
                scipy.special.lambertw(math.exp(log_x)).real, rel=1e-12
            )


class TestQuadrature:
    # int_0^infty of each integrand; mpmath ground truth
    CASES = [
        (lambda t: np.exp(-t * t), 0.8862269254527580136491),
        (lambda t: t * t * np.exp(-t * t), 0.4431134627263790068245),
        (lambda t: 2.0 * t**3 * np.exp(-t * t), 1.0),
        (lambda t: 2.0 * t**5 * np.exp(-t * t), 2.0),
    ]

    @pytest.mark.parametrize("fn,want", CASES)
    def test_gaussian_moments(self, fn, want):
        assert integrate_semi_infinite(fn) == pytest.approx(want, rel=2e-11)

    def test_non_vectorized_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda t: 1.0)  # scalar, wrong shape

    def test_subdivision_exhaustion(self, monkeypatch):
        # a sharp ridge the seed grid cannot resolve within two splits
        monkeypatch.setattr(numerics, "_QUAD_MAX_SPLITS", 2)
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(
                lambda t: np.exp(-((t - 2.3) ** 2) * 1e6) + np.exp(-t * t) * np.sin(40 * t) ** 2
            )
