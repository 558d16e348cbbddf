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
    # from psi = 38 on the gain is exactly 1.0, with exp(-psi) taken as it
    # is: across 700 and exp's subnormal range (to ~745), and at psi = inf
    deep = _deep_saturation(psis)
    assert np.all(bussgang_gain_soft(deep) == 1.0)


def _deep_saturation(psis):
    """``psis``, a dense grid over (690, 760) and +inf, from 38 upward."""
    psis = np.concatenate([psis, np.linspace(690.0, 760.0, 7001), [np.inf]])
    return psis[psis >= 38.0]


def test_dist_nonnegative_everywhere():
    # includes the deep-saturation region where the raw residual would go
    # negative by rounding and must be clamped
    psis = np.geomspace(1e-3, 1e4, 400)
    c = distortion_coeff_soft(psis)
    assert np.all(c >= 0.0)
    assert distortion_coeff_soft(800.0) == 0.0
    assert np.all(distortion_coeff_soft(_deep_saturation(psis)) == 0.0)


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


# (psi, p, lambda, lambda + c) for the Rapp law, mpmath at 30 digits: every
# half decade of back-off from 1e-4 to 1e3, and two small back-offs whose
# knee t = sqrt(psi) sits deep inside a coarse panel, where an error
# estimate can miss it.  lambda + c is the total output power integral
# 2 t^3 (1 + (t^2/psi)^p)^(-1/p) e^(-t^2) dt.
RAPP_MPMATH = [
    (0.0001, 1.0, 7.852434312841206246e-5, 9.9913659119297877531e-5),
    (0.00031622776601683794, 1.0, 2.4821177965851727925e-4, 3.1547931453678251906e-4),
    (0.001, 1.0, 7.8390051722791077563e-4, 9.936621259296745326e-4),
    (0.0031622776601683794, 1.0, 2.4692178132487338129e-3, 3.1102894502107071513e-3),
    (0.01, 1.0, 7.7189407788448075993e-3, 9.5921488556543576085e-3),
    (0.03162277660168379, 1.0, 2.3635748291442010176e-2, 2.8621310448635689144e-2),
    (0.1, 1.0, 6.8762491691520689249e-2, 7.9853574552915486967e-2),
    (0.31622776601683794, 1.0, 1.7926396329613214732e-1, 1.972854991875257639e-1),
    (1.0, 1.0, 3.857203951222582332e-1, 4.0365263767680592566e-1),
    (3.1622776601683795, 1.0, 6.4273278219353344328e-1, 6.5204653984783864406e-1),
    (10.0, 1.0, 8.4121397430753545209e-1, 8.4366660602119181239e-1),
    (31.622776601683793, 1.0, 9.417114575744221178e-1, 9.4209677396992622922e-1),
    (100.0, 1.0, 9.8053131414304946729e-1, 9.8057713266981593594e-1),
    (316.22776601683796, 1.0, 9.9372983646355029738e-1, 9.937346975102568248e-1),
    (1000.0, 1.0, 9.980054805852365619e-1, 9.9800597611928500004e-1),
    (0.0001, 2.0, 7.853969973850012003e-5, 9.9990004913169275332e-5),
    (0.00031622776601683794, 2.0, 2.4836265456566357191e-4, 3.1612790318363627448e-4),
    (0.001, 2.0, 7.8536234114229656541e-4, 9.9900376217621354676e-4),
    (0.0031622776601683794, 2.0, 2.4830307861684809474e-3, 3.1523784497607853396e-3),
    (0.0032267991199458083, 2.0, 2.5336744029853997102e-3, 3.2164936344918433621e-3),
    (0.01, 2.0, 7.8436548345153934387e-3, 9.9026138468427153431e-3),
    (0.03162277660168379, 2.0, 2.4671565790252352924e-2, 3.0687449720104885657e-2),
    (0.1, 2.0, 7.613241669754064646e-2, 9.1490277662517518874e-2),
    (0.31622776601683794, 2.0, 2.1865956993769680812e-1, 2.4698610685334638211e-1),
    (1.0, 2.0, 5.129139391851616729e-1, 5.3886228487508561076e-1),
    (3.1622776601683795, 2.0, 8.3541756505923193623e-1, 8.4211405553458985539e-1),
    (10.0, 2.0, 9.7314013872924545243e-1, 9.7346890388829991289e-1),
    (31.622776601683793, 2.0, 9.9703857789768741892e-1, 9.9704351558600237507e-1),
    (100.0, 2.0, 9.9970039626955766379e-1, 9.9970044843482564526e-1),
    (316.22776601683796, 2.0, 9.9997000397376321161e-1, 9.9997000449842599127e-1),
    (1000.0, 2.0, 9.9999700003974876257e-1, 9.999970000449984251e-1),
    (0.0001, 5.0, 7.8539780579123757012e-5, 9.9994375028791499124e-5),
    (0.00031622776601683794, 5.0, 2.4836407079709785862e-4, 3.1617152152655439884e-4),
    (0.001, 5.0, 7.8538686053100580071e-4, 9.9943772016735815875e-4),
    (0.0031622776601683794, 5.0, 2.4834463119516620094e-3, 3.1566600760616653498e-3),
    (0.01, 5.0, 7.8504253560448084272e-3, 9.9439884736648438486e-3),
    (0.03162277660168379, 5.0, 2.4774004114851490926e-2, 3.1067800838865205111e-2),
    (0.1, 5.0, 7.7471995181929765481e-2, 9.4607329919007587977e-2),
    (0.31622776601683794, 5.0, 2.3160001375867327935e-1, 2.6678404206214169338e-1),
    (1.0, 5.0, 5.7838504222077030024e-1, 6.1175416749995610143e-1),
    (3.1622776601683795, 5.0, 9.2927460640428946032e-1, 9.338499933201003543e-1),
    (10.0, 5.0, 9.9875692551958299693e-1, 9.9876952533060798703e-1),
    (31.622776601683793, 5.0, 9.9999545066785293226e-1, 9.9999545105502749924e-1),
    (100.0, 5.0, 9.9999998560004395871e-1, 9.9999998560004789832e-1),
    (316.22776601683796, 5.0, 9.9999999995446320213e-1, 9.9999999995446320217e-1),
    (1000.0, 5.0, 9.99999999999856e-1, 9.99999999999856e-1),
    (0.0001, 8.0, 7.853978450395373242e-5, 9.9994756384692642617e-5),
    (0.00031622776601683794, 8.0, 2.4836414057086985695e-4, 3.1617533403167629345e-4),
    (0.001, 8.0, 7.8538810013910770739e-4, 9.9947581191473033122e-4),
    (0.0031622776601683794, 8.0, 2.483468290022901619e-3, 3.1570399426758237985e-3),
    (0.01, 8.0, 7.8508124964466369012e-3, 9.9477541371567202663e-3),
    (0.03162277660168379, 8.0, 2.4780683224299641732e-2, 3.1104436195605244082e-2),
    (0.1, 8.0, 7.7579829510651374334e-2, 9.4943483631796070987e-2),
    (0.31622776601683794, 8.0, 2.330134768872872653e-1, 2.6936488109509815069e-1),
    (1.0, 8.0, 5.8835445080092945168e-1, 6.2358433229378017884e-1),
    (3.1622776601683795, 8.0, 9.4348258265122148988e-1, 9.4778554849997209105e-1),
    (10.0, 8.0, 9.9970698650020025083e-1, 9.9971136087449998475e-1),
    (31.622776601683793, 8.0, 9.9999995466305034027e-1, 9.9999995466438942424e-1),
    (100.0, 8.0, 9.9999999999546400024e-1, 9.9999999999546400025e-1),
    (316.22776601683796, 8.0, 9.999999999999995464e-1, 9.999999999999995464e-1),
    (1000.0, 8.0, 9.9999999999999999995e-1, 9.9999999999999999995e-1),
    (0.0001, 20.0, 7.8539786439084390622e-5, 9.999496026516219658e-5),
    (0.00031622776601683794, 20.0, 2.4836417497468500513e-4, 3.1617737235911637843e-4),
    (0.001, 20.0, 7.8538871147195446557e-4, 9.9949618010468466349e-4),
    (0.0031622776601683794, 20.0, 2.4834791350933347975e-3, 3.1572431483329252848e-3),
    (0.004457822860419706, 20.0, 3.5007698785819418696e-3, 4.4478225717435710488e-3),
    (0.01, 20.0, 7.8510038766968203523e-3, 9.9497712102878771462e-3),
    (0.03162277660168379, 20.0, 2.4784003628003570859e-2, 3.1124140682436357435e-2),
    (0.1, 20.0, 7.7634346180641143391e-2, 9.5126513308483688078e-2),
    (0.31622776601683794, 20.0, 2.3376083057169993564e-1, 2.7081666062764116336e-1),
    (1.0, 20.0, 5.9410413989296584248e-1, 6.3066465612120947924e-1),
    (3.1622776601683795, 20.0, 9.5176604123166967272e-1, 9.5599390610510495313e-1),
    (10.0, 20.0, 9.9993113155615354994e-1, 9.9993332530724370903e-1),
    (31.622776601683793, 20.0, 9.9999999999752052801e-1, 9.9999999999752171635e-1),
    (100.0, 20.0, 1.0, 1.0),
    (316.22776601683796, 20.0, 1.0, 1.0),
    (1000.0, 20.0, 1.0, 1.0),
    (0.0001, 100.0, 7.8539786785503322748e-5, 9.999499853343224829e-5),
    (0.00031622776601683794, 100.0, 2.4836418113362600449e-4, 3.1617775495811435929e-4),
    (0.001, 100.0, 7.8538882091872616655e-4, 9.9950000344897604042e-4),
    (0.0031622776601683794, 100.0, 2.4834810770488804661e-3, 3.1572812982329054361e-3),
    (0.01, 100.0, 7.8510381663148142412e-3, 9.9501500794945910569e-3),
    (0.03162277660168379, 100.0, 2.4784599663771094517e-2, 3.1127847407257333648e-2),
    (0.1, 100.0, 7.7644189514109102049e-2, 9.5161104074191235376e-2),
    (0.31622776601683794, 100.0, 2.3389807856587091751e-1, 2.7109468177519966828e-1),
    (1.0, 100.0, 5.9520176749809715319e-1, 6.3206049021334187331e-1),
    (3.1622776601683795, 100.0, 9.5336125551372251433e-1, 9.576016610045686213e-1),
    (10.0, 100.0, 9.9995185794424677857e-1, 9.9995385341938080399e-1),
    (31.622776601683793, 100.0, 9.9999999999997790398e-1, 9.9999999999997819069e-1),
    (100.0, 100.0, 1.0, 1.0),
    (316.22776601683796, 100.0, 1.0, 1.0),
    (1000.0, 100.0, 1.0, 1.0),
    (0.0001, 200.0, 7.8539786796393918331e-5, 9.9994999756942297913e-5),
    (0.00031622776601683794, 200.0, 2.4836418132724915668e-4, 3.1617776719056806151e-4),
    (0.001, 200.0, 7.8538882435951494232e-4, 9.9950012568985177367e-4),
    (0.0031622776601683794, 200.0, 2.4834811381017968241e-3, 3.1572825179998253592e-3),
    (0.01, 200.0, 7.8510392444371569599e-3, 9.9501621939968259679e-3),
    (0.03162277660168379, 200.0, 2.478461840935032327e-2, 3.1127965959455410564e-2),
    (0.1, 200.0, 7.7644499361812546172e-2, 9.5162211200948583831e-2),
    (0.31622776601683794, 200.0, 2.3390241015418872586e-1, 2.7110359926754560064e-1),
    (1.0, 200.0, 5.9523663142046937588e-1, 6.3210548585382330855e-1),
    (3.1622776601683795, 200.0, 9.534120201972433582e-1, 9.5765343682328979736e-1),
    (10.0, 200.0, 9.9995242030146813713e-1, 9.9995441371883556964e-1),
    (31.622776601683793, 200.0, 9.9999999999998047645e-1, 9.999999999999807567e-1),
    (100.0, 200.0, 1.0, 1.0),
    (316.22776601683796, 200.0, 1.0, 1.0),
    (1000.0, 200.0, 1.0, 1.0),
]


@pytest.mark.parametrize("psi,p,lam,total", RAPP_MPMATH)
def test_rapp_matches_mpmath(psi, p, lam, total):
    got_lam = bussgang_gain_rapp(psi, p)
    assert got_lam == pytest.approx(lam, rel=1e-13, abs=0.0)
    # the total moment is flat where the knee sits below the first panel
    got_total = distortion_coeff_rapp(psi, p) + got_lam
    assert got_total == pytest.approx(total, rel=1e-13 if psi >= 1e-3 else 2e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 200.0])
def test_rapp_without_backoff_is_linear(p):
    # psi = inf: no saturation, so lambda = 1 and no distortion
    assert abs(bussgang_gain_rapp(math.inf, p) - 1.0) <= 1e-15
    assert 0.0 <= distortion_coeff_rapp(math.inf, p) <= 1e-15


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
# the fixed Gauss-Legendre rule to the bit: batching or reordering its
# nodes, panels or moments must not move them.
_RAPP_PSI = (1e-3, 3e-3, 1e-2, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3)
_RAPP_PINNED = {
    1.0: (
        ("0x1.9afd58adb1949p-11", "0x1.b7e6e7fa83cc4p-13"),  # psi = 0.001
        ("0x1.33200dc3db327p-9", "0x1.3f966456fdfccp-11"),  # psi = 0.003
        ("0x1.f9de56347446dp-8", "0x1.eb0cddb6c8b8cp-10"),  # psi = 0.01
        ("0x1.7035c42536d37p-6", "0x1.3963793e54634p-8"),  # psi = 0.03
        ("0x1.19a6b2d01ad77p-4", "0x1.6b6ebf155d870p-7"),  # psi = 0.1
        ("0x1.60a0cca9997d9p-3", "0x1.237910f463268p-6"),  # psi = 0.3
        ("0x1.8afa4989cd1acp-2", "0x1.25cd46d434c80p-6"),  # psi = 1
        ("0x1.43540f8cfdda9p-1", "0x1.3f58454eac180p-7"),  # psi = 3
        ("0x1.aeb399192d97cp-1", "0x1.4178a9ffa2800p-9"),  # psi = 10
        ("0x1.e0ac07a23afa8p-1", "0x1.bb29d4d475800p-12"),  # psi = 30
        ("0x1.f608334de5878p-1", "0x1.805a897948000p-15"),  # psi = 100
        ("0x1.fefa9308af495p-1", "0x1.0a09ae5400000p-21"),  # psi = 1000
    ),
    2.0: (
        ("0x1.9bc18c90d3a29p-11", "0x1.c009dd533e7fcp-13"),  # psi = 0.001
        ("0x1.34c29ad351290p-9", "0x1.4d267364a8614p-11"),  # psi = 0.003
        ("0x1.0105587f67d2cp-7", "0x1.0ddf333e560e0p-9"),  # psi = 0.01
        ("0x1.7fa7b7a0fd12dp-6", "0x1.78243c029ac9cp-8"),  # psi = 0.03
        ("0x1.37d69ffe1a236p-4", "0x1.f73f134a612f0p-7"),  # psi = 0.1
        ("0x1.ac07a87a92fb0p-3", "0x1.c88a1e8664520p-6"),  # psi = 0.3
        ("0x1.069ca7e4ecf45p-1", "0x1.a9234007e7dc0p-6"),  # psi = 1
        ("0x1.a5f064ca3cdc6p-1", "0x1.e3db04880b880p-8"),  # psi = 3
        ("0x1.f23f6c9c88b5dp-1", "0x1.58bc39b302000p-12"),  # psi = 10
        ("0x1.fe5150e6dd9f0p-1", "0x1.9671dfa640000p-18"),  # psi = 30
        ("0x1.ffd8baf78d4ecp-1", "0x1.c018a33000000p-25"),  # psi = 100
        ("0x1.ffff9b5689a46p-1", "0x1.7168000000000p-38"),  # psi = 1000
    ),
    8.0: (
        ("0x1.9bc501a35bdadp-11", "0x1.c0f9770ec2974p-13"),  # psi = 0.001
        ("0x1.34cf8246c5f35p-9", "0x1.4f266a6625c24p-11"),  # psi = 0.003
        ("0x1.01416375aa85ep-7", "0x1.12d9af8974f34p-9"),  # psi = 0.01
        ("0x1.813cafb0e2eb0p-6", "0x1.8a8a6ac36260cp-8"),  # psi = 0.03
        ("0x1.3dc458e93d745p-4", "0x1.1c7c71a5b8458p-6"),  # psi = 0.1
        ("0x1.c6c48694e2266p-3", "0x1.2315422c69e78p-5"),  # psi = 0.3
        ("0x1.2d3ccb694ac4dp-1", "0x1.209a6a9b51e90p-5"),  # psi = 1
        ("0x1.de8e74e7a9594p-1", "0x1.4f95625e93f00p-8"),  # psi = 3
        ("0x1.ffd9981933bfep-1", "0x1.258f2da0a0000p-18"),  # psi = 10
        ("0x1.fffffdae95487p-1", "0x1.af24000000000p-39"),  # psi = 30
        ("0x1.fffffffff606ap-1", "0x0.0p+0"),  # psi = 100
        ("0x1.0000000000002p+0", "0x0.0p+0"),  # psi = 1000
    ),
}


@pytest.mark.parametrize("p", sorted(_RAPP_PINNED))
def test_rapp_laws_are_pinned_to_the_bit(p):
    for psi, (lam, coeff) in zip(_RAPP_PSI, _RAPP_PINNED[p], strict=True):
        assert bussgang_gain_rapp(psi, p).hex() == lam, psi
        assert distortion_coeff_rapp(psi, p).hex() == coeff, psi
