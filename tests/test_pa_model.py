"""Clipping gain / distortion coefficients vs mpmath references (50 digits)."""

import math

import numpy as np
import pytest

from dapalloc.pa_model import (
    PaModel,
    PaOperatingPoint,
    bussgang_gain_rapp,
    bussgang_gain_soft,
    distortion_coeff_rapp,
    distortion_coeff_soft,
    input_backoff,
)

# (psi, lambda, c) for the ideal clipper, mpmath
SOFT_TABLE = [
    (0.1, 0.077644602865095923397, 0.017517979098944503439),
    (10 ** (-0.2), 0.4249130229600838268, 0.043004805869330413762),
    (1.0, 0.59524828186178631191, 0.036872276966771366499),
    (10 ** 0.3, 0.84879685702386594416, 0.015225162547662526885),
    (10 ** 0.6, 0.97966561745077005993, 0.0016687579877110232709),
    (10 ** 0.8, 0.99806324112001455419, 0.00011794998382823839031),
    (10.0, 0.99995260696708711565, 1.9931031503994986324e-6),
    (10 ** 1.4, 0.99999999998743641157, 2.3209044674297195977e-13),
]


@pytest.mark.parametrize("psi,lam,_c", SOFT_TABLE)
def test_gain_soft_anchors(psi, lam, _c):
    assert bussgang_gain_soft(psi) == pytest.approx(lam, rel=3e-15)


@pytest.mark.parametrize("psi,_lam,c", SOFT_TABLE)
def test_dist_soft_anchors(psi, _lam, c):
    assert distortion_coeff_soft(psi) == pytest.approx(c, rel=2e-12)


def test_soft_tiny_backoff():
    assert bussgang_gain_soft(1e-3) == pytest.approx(0.0007853888255088366728835, rel=3e-15)


def test_soft_erfcx_branch():
    # psi=25 sits past the branch switch; the residual c is ~2.6e-13 so only an
    # absolute comparison is meaningful (the subtraction floor is ~1e-16 here,
    # which is the price of keeping lambda + c == 1 - e^-psi exact in floats).
    assert bussgang_gain_rapp is not distortion_coeff_soft  # keep imports honest
    assert bussgang_gain_soft(25.0) == pytest.approx(0.9999999999858494949364, rel=1e-15)
    assert distortion_coeff_soft(25.0) == pytest.approx(2.625611986820943796142e-13, abs=2e-15)


def test_power_identity_exact():
    """lambda + c == -expm1(-psi), bit for bit, across both branches.

    np.expm1 is the primitive the implementation subtracts against (libm's
    expm1 can differ from it by one ulp, so don't mix the two here).
    """
    psis = np.concatenate(
        [np.geomspace(1e-6, 24.9, 300), np.geomspace(25.1, 690.0, 100)]
    )
    for psi in psis:
        lam = bussgang_gain_soft(float(psi))
        c = distortion_coeff_soft(float(psi))
        total = float(-np.expm1(-np.float64(psi)))
        if c > 0.0:
            assert lam + c == total
        else:
            # clamp region (psi beyond ~34): the subtraction went nonpositive,
            # so lambda alone may sit an ulp or two above 1 - e^-psi
            assert lam >= total
            assert lam - total <= 4 * np.spacing(1.0)
        assert lam + c <= 1.0


def test_gain_monotone_and_bounded():
    psis = np.geomspace(1e-3, 1e6, 500)
    lam = bussgang_gain_soft(psis)
    assert np.all(np.diff(lam) >= 0)  # saturates at float 1.0 eventually
    assert np.all(np.diff(lam[psis <= 20.0]) > 0)  # strict before saturation
    assert lam[0] > 0.0
    assert lam[-1] <= 1.0
    assert bussgang_gain_soft(0.0) == 0.0
    assert distortion_coeff_soft(0.0) == 0.0


def test_dist_nonnegative_everywhere():
    # includes the deep-saturation region where the raw residual would go
    # negative by rounding and must be clamped
    psis = np.geomspace(1e-3, 1e4, 400)
    c = distortion_coeff_soft(psis)
    assert np.all(c >= 0.0)
    assert distortion_coeff_soft(800.0) == 0.0


def test_vectorized_matches_scalar():
    psis = np.array([0.5, 2.0, 40.0])
    lam_vec = bussgang_gain_soft(psis)
    for i, p in enumerate(psis):
        assert lam_vec[i] == bussgang_gain_soft(float(p))


def test_domain_errors():
    # the clipper accepts psi = 0 (fully saturated: lam = c = 0); negatives are out
    for fn in (bussgang_gain_soft, distortion_coeff_soft):
        with pytest.raises(ValueError):
            fn(-1.0)
        with pytest.raises(ValueError):
            fn(np.array([1.0, -2.0]))
    # Rapp needs psi strictly positive and p > 0
    with pytest.raises(ValueError):
        bussgang_gain_rapp(1.0, 0.0)
    with pytest.raises(ValueError):
        bussgang_gain_rapp(0.0, 2.0)
    with pytest.raises(ValueError):
        distortion_coeff_rapp(-1.0, 2.0)


# (psi, p, lambda, c) for the smooth saturation model, mpmath + adaptive quadrature
RAPP_TABLE = [
    (3.9810717055349722, 2.0, 0.87925009686564479575, 0.0041866852087740752197),
    (1.0, 2.0, 0.5129139391851616729, 0.025948345689923937853),
    (10.0, 2.0, 0.97314013872924545243, 0.00032876515905446045891),
    (3.9810717055349722, 1.0, 0.69005310166240756416, 0.007510705925944530651),
    (3.9810717055349722, 5.0, 0.96136852412295305312, 0.0020619290963131388641),
    (2.0, 3.0, 0.78155764709047103998, 0.013946051084446950748),
]


@pytest.mark.parametrize("psi,p,lam,c", RAPP_TABLE)
def test_rapp_anchors(psi, p, lam, c):
    assert bussgang_gain_rapp(psi, p) == pytest.approx(lam, rel=1e-9)
    assert distortion_coeff_rapp(psi, p) == pytest.approx(c, rel=1e-8)


def test_rapp_approaches_clipper():
    # p -> inf recovers the ideal clipper; frozen gaps from the reference run
    for psi, gap in [(0.1, 9.7e-8), (1.0, 1.1e-5), (10.0, 1.8e-7)]:
        d = abs(bussgang_gain_rapp(psi, 200.0) - bussgang_gain_soft(psi))
        assert d <= 2.0 * gap + 1e-12
    for psi, gap in [(0.1, 2.7e-7), (1.0, 3.4e-6), (10.0, 3.1e-10)]:
        d = abs(distortion_coeff_rapp(psi, 200.0) - distortion_coeff_soft(psi))
        assert d <= 2.0 * gap + 1e-12


def test_rapp_softer_than_clipper_at_p2():
    # a smooth knee always passes less coherent power than the hard clipper
    for psi in (0.5, 1.0, 4.0, 10.0):
        assert bussgang_gain_rapp(psi, 2.0) < bussgang_gain_soft(psi)
    # the distortion ordering flips with back-off: at mild clipping the smooth
    # knee distorts more (it compresses before the clip point); deep in
    # saturation the hard limiter is the dirtier device
    for psi in (4.0, 10.0):
        assert distortion_coeff_rapp(psi, 2.0) > distortion_coeff_soft(psi)
    for psi in (0.5, 1.0):
        assert distortion_coeff_rapp(psi, 2.0) < distortion_coeff_soft(psi)


def test_input_backoff():
    # psi = M * p_max / P
    assert input_backoff(0.16, 64, 0.01) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError):
        input_backoff(0.0, 64, 0.01)
    with pytest.raises(ValueError):
        input_backoff(0.1, 0, 0.01)
    with pytest.raises(ValueError):
        input_backoff(0.1, 64, 0.0)


def test_pa_model_validation():
    assert PaModel().kind == "soft_limiter"
    assert PaModel("rapp", 3.0).smoothness_p == 3.0
    with pytest.raises(ValueError):
        PaModel("class_ab")
    with pytest.raises(ValueError):
        PaModel("rapp", 0.0)
    with pytest.raises(ValueError, match="smoothness_p"):
        PaModel("rapp", math.nan)
    with pytest.raises(ValueError, match="^smoothness_p must be a number$"):
        PaModel("rapp", True)


def test_operating_point_db_view():
    op = PaOperatingPoint(ibo=4.0, lam=0.9, dist_coeff=0.01, effective_distortion=1e-3)
    assert op.ibo_db == pytest.approx(10.0 * math.log10(4.0), rel=1e-15)
    assert PaOperatingPoint(math.inf, 1.0, 0.0, 0.0).ibo_db == math.inf


def test_sdr_monotone_in_backoff():
    psis = np.geomspace(0.1, 30.0, 60)
    lam = bussgang_gain_soft(psis)
    c = distortion_coeff_soft(psis)
    vals = 10.0 * np.log10(lam / c)
    assert np.all(np.diff(vals) > 0)
    # 6 dB back-off on the ideal clipper: ~27.7 dB distortion-limited ceiling
    six = 10 ** 0.6
    got = 10.0 * math.log10(bussgang_gain_soft(six) / distortion_coeff_soft(six))
    assert got == pytest.approx(27.6868450871000844, rel=1e-12)


# Bussgang gain and distortion coefficient of the Rapp law as hex floats,
# at 12 back-offs from 1e-3 to 1e3 and three knee sharpnesses.  They pin
# the adaptive quadrature to the bit: batching or reordering its
# integrand calls must not move them.
_RAPP_PSI = (1e-3, 3e-3, 1e-2, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3)
_RAPP_PINNED = {
    1.0: (
        ("0x1.9afd58adb17e1p-11", "0x1.b7e6e7fa841f4p-13"),  # psi = 0.001
        ("0x1.33200dc3db307p-9", "0x1.3f966456fdff8p-11"),  # psi = 0.003
        ("0x1.f9de56347442fp-8", "0x1.eb0cddb6c8c04p-10"),  # psi = 0.01
        ("0x1.7035c42536d0ep-6", "0x1.3963793e54680p-8"),  # psi = 0.03
        ("0x1.19a6b2d01ad59p-4", "0x1.6b6ebf155d8d0p-7"),  # psi = 0.1
        ("0x1.60a0cca9997b6p-3", "0x1.237910f4632d8p-6"),  # psi = 0.3
        ("0x1.8afa4989cd182p-2", "0x1.25cd46d434db0p-6"),  # psi = 1
        ("0x1.43540f8cfdd86p-1", "0x1.3f58454eac600p-7"),  # psi = 3
        ("0x1.aeb399192d950p-1", "0x1.4178a9ffa4000p-9"),  # psi = 10
        ("0x1.e0ac07a23af7ap-1", "0x1.bb29d4d480800p-12"),  # psi = 30
        ("0x1.f608334de5843p-1", "0x1.805a8979ac000p-15"),  # psi = 100
        ("0x1.fefa9308af459p-1", "0x1.0a09ae7600000p-21"),  # psi = 1000
    ),
    2.0: (
        ("0x1.9bc18c90d3969p-11", "0x1.c009dd533ea94p-13"),  # psi = 0.001
        ("0x1.34c29ad35126fp-9", "0x1.4d267364a864cp-11"),  # psi = 0.003
        ("0x1.0105587f67d10p-7", "0x1.0ddf333e5610cp-9"),  # psi = 0.01
        ("0x1.7fa7b7a0fd106p-6", "0x1.78243c029acd4p-8"),  # psi = 0.03
        ("0x1.37d69ffe1a217p-4", "0x1.f73f134a61350p-7"),  # psi = 0.1
        ("0x1.ac07a87a92f84p-3", "0x1.c88a1e86645b0p-6"),  # psi = 0.3
        ("0x1.069ca7e4ecf2ap-1", "0x1.a9234007e7f40p-6"),  # psi = 1
        ("0x1.a5f064ca3cd9bp-1", "0x1.e3db04880c300p-8"),  # psi = 3
        ("0x1.f23f6c9c88b2ap-1", "0x1.58bc39b30f800p-12"),  # psi = 10
        ("0x1.fe5150e6dd9bep-1", "0x1.9671dfa920000p-18"),  # psi = 30
        ("0x1.ffd8baf78d4b6p-1", "0x1.c018a4b000000p-25"),  # psi = 100
        ("0x1.ffff9b5689a10p-1", "0x1.71a0000000000p-38"),  # psi = 1000
    ),
    8.0: (
        ("0x1.9bc501a35be7ap-11", "0x1.c0f9770ec25d0p-13"),  # psi = 0.001
        ("0x1.34cf8246c5f31p-9", "0x1.4f266a6625c2cp-11"),  # psi = 0.003
        ("0x1.01416375aa61ap-7", "0x1.12d9af89756acp-9"),  # psi = 0.01
        ("0x1.813cafb0e2e81p-6", "0x1.8a8a6ac362680p-8"),  # psi = 0.03
        ("0x1.3dc458e93d72cp-4", "0x1.1c7c71a5b846cp-6"),  # psi = 0.1
        ("0x1.c6c48694e223bp-3", "0x1.2315422c69ebcp-5"),  # psi = 0.3
        ("0x1.2d3ccb694ac2bp-1", "0x1.209a6a9b51fd0p-5"),  # psi = 1
        ("0x1.de8e74e7a955dp-1", "0x1.4f95625e94d00p-8"),  # psi = 3
        ("0x1.ffd9981933bcap-1", "0x1.258f2da3c0000p-18"),  # psi = 10
        ("0x1.fffffdae95451p-1", "0x1.af88000000000p-39"),  # psi = 30
        ("0x1.fffffffff6032p-1", "0x1.c000000000000p-49"),  # psi = 100
        ("0x1.fffffffffffccp-1", "0x1.a000000000000p-49"),  # psi = 1000
    ),
}


@pytest.mark.parametrize("p", sorted(_RAPP_PINNED))
def test_rapp_laws_are_pinned_to_the_bit(p):
    for psi, (lam, coeff) in zip(_RAPP_PSI, _RAPP_PINNED[p], strict=True):
        assert bussgang_gain_rapp(psi, p).hex() == lam, psi
        assert distortion_coeff_rapp(psi, p).hex() == coeff, psi
