"""Placement, path loss, noise floor, and drop determinism."""

import hashlib
import math

import numpy as np
import pytest
import scipy.stats

from dapalloc.scenario import (
    ScenarioConfig,
    drop_ues,
    homogeneous_sweep,
    noise_power_w,
    path_loss_db,
    two_ue_grid,
)


def _sc(**kw):
    base = dict(n_users=8, m_antennas=64, p_max=0.01, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_path_loss_frozen_points():
    # mpmath: 22.7 + 36.7 log10(d) + 26 log10(fc)
    assert path_loss_db(1000.0, 3.0) == pytest.approx(145.205152622711223, rel=1e-15)
    assert path_loss_db(10.0, 3.0) == pytest.approx(71.8051526227112234, rel=1e-15)
    assert path_loss_db(2000.0, 3.0) == pytest.approx(156.252953463579333, rel=1e-15)
    out = path_loss_db(np.array([10.0, 1000.0]), 3.0)
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        path_loss_db(0.5, 3.0)
    with pytest.raises(ValueError):
        path_loss_db(100.0, 0.0)


def test_noise_floor_frozen():
    # -174 dBm/Hz over 1200 x 15 kHz = -101.447 dBm
    got = noise_power_w(1200, 15e3)
    assert got == pytest.approx(7.16592906996295051e-14, rel=1e-14, abs=0)
    assert 10 * np.log10(got * 1e3) == pytest.approx(-101.447274948966939, rel=1e-12)
    with pytest.raises(ValueError):
        noise_power_w(0, 15e3)


def test_config_derived_properties():
    sc = _sc()
    assert sc.bandwidth_hz == 18e6
    assert sc.noise_w == noise_power_w(1200, 15e3)
    assert sc.cell_radius_m == 2000.0
    assert sc.min_distance_m == 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        _sc(n_users=64)  # K must stay below M
    with pytest.raises(ValueError):
        _sc(p_max=0.0)
    with pytest.raises(ValueError):
        _sc(min_distance_m=0.0)
    with pytest.raises(ValueError):
        _sc(min_distance_m=3000.0)
    with pytest.raises(ValueError):
        _sc(seed=-1)
    with pytest.raises(ValueError):
        _sc(pilot_len=60)  # rho_ul_w missing
    with pytest.raises(ValueError):
        _sc(pilot_len=0, rho_ul_w=0.2)


@pytest.mark.parametrize("name", ["p_max", "cell_radius_m", "fc_ghz", "delta_f_hz", "rho_ul_w"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_numbers_by_name(name, value):
    # NaN passes a `<= 0` check, so without its own check it failed only
    # at the first drop, under another name
    pilot = {"pilot_len": 4, "rho_ul_w": 0.2} if name == "rho_ul_w" else {}
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        _sc(**{**pilot, name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("seed", 1.5),
        ("n_subcarriers", 1200.5),
        ("m_antennas", 64.5),
        ("pilot_len", 2.5),
        ("n_users", 2.5),
        ("n_users", math.nan),
        ("n_users", True),
        ("p_max", True),
    ],
)
def test_config_rejects_a_number_of_the_wrong_kind_by_name(name, value):
    # seed 1.5 ran as seed 1 and 1200.5 subcarriers as a bandwidth of
    # 18,007,500 Hz; a bad n_users failed in drop_ues with a numpy TypeError
    with pytest.raises(ValueError, match=f"^{name} must be "):
        _sc(**{"pilot_len": 4, "rho_ul_w": 0.2, name: value})


def test_dict_round_trip():
    sc = _sc(seed=9, fc_ghz=3.5, pilot_len=60, rho_ul_w=0.2)
    assert ScenarioConfig.from_dict(sc.to_dict()) == sc
    with pytest.raises(ValueError, match="unknown"):
        ScenarioConfig.from_dict({**sc.to_dict(), "typo_key": 1})


def test_drop_determinism_and_pins():
    sc = _sc()
    a = drop_ues(sc, 0)
    b = drop_ues(sc, 0)
    assert np.array_equal(a.beta, b.beta)
    # regression pins: any change to the generator identity shows up here
    assert a.beta[0] == pytest.approx(8.479827076151992e-13, rel=1e-15, abs=0)
    assert a.beta[1] == pytest.approx(1.6955189065027072e-15, rel=1e-15, abs=0)
    # different drops and different seeds decorrelate
    assert not np.array_equal(a.beta, drop_ues(sc, 1).beta)
    assert not np.array_equal(a.beta, drop_ues(_sc(seed=1), 0).beta)


def test_drop_respects_geometry_bounds():
    sc = _sc(n_users=50)
    pl_min = path_loss_db(sc.min_distance_m, sc.fc_ghz)
    pl_max = path_loss_db(sc.cell_radius_m, sc.fc_ghz)
    for drop_id in range(20):
        ues = drop_ues(sc, drop_id)
        pl = -10 * np.log10(ues.beta)
        assert np.all(pl >= pl_min - 1e-9)
        assert np.all(pl <= pl_max + 1e-9)
        assert np.all(ues.noise_w == sc.noise_w)


def test_placement_is_area_uniform():
    """d^2 must be uniform on [min^2, R^2] (Kolmogorov-Smirnov)."""
    sc = _sc(n_users=40, seed=5)
    d2 = []
    for drop_id in range(100):
        beta = drop_ues(sc, drop_id).beta
        pl = -10 * np.log10(beta)
        d = 10 ** ((pl - 22.7 - 26 * np.log10(sc.fc_ghz)) / 36.7)
        d2.extend(d**2)
    lo, hi = sc.min_distance_m**2, sc.cell_radius_m**2
    stat = scipy.stats.kstest((np.array(d2) - lo) / (hi - lo), "uniform")
    assert stat.pvalue > 1e-3


def test_drop_carries_csi_delta_when_piloted():
    sc = _sc(pilot_len=60, rho_ul_w=0.2)
    ues = drop_ues(sc, 3)
    assert ues.csi_delta is not None
    assert np.all(ues.csi_delta > 0)
    assert np.all(ues.csi_delta < 1)
    # stronger channel, better estimate
    order = np.argsort(ues.beta)
    assert np.all(np.diff(ues.csi_delta[order]) <= 0)
    assert drop_ues(_sc(), 3).csi_delta is None


def test_drop_id_validation():
    with pytest.raises(ValueError):
        drop_ues(_sc(), -1)
    with pytest.raises(ValueError):
        drop_ues(_sc(), 2**64)


def test_homogeneous_sweep():
    sc = _sc(n_users=3)
    sets = homogeneous_sweep([80.0, 100.0], sc)
    assert len(sets) == 2
    np.testing.assert_allclose(sets[1].beta, 1e-10, rtol=1e-15)
    assert sets[0].n_users == 3


def test_two_ue_grid_structure():
    sc = _sc(n_users=2)
    grid, cells = two_ue_grid(60.0, 150.0, 5.0, sc)
    assert grid.shape == (19,)
    assert grid[0] == 60.0 and grid[-1] == 150.0
    assert len(cells) == 19 and len(cells[0]) == 19
    # symmetry: cell (i, j) user betas are the swap of cell (j, i)
    np.testing.assert_array_equal(cells[2][7].beta, cells[7][2].beta[::-1])
    with pytest.raises(ValueError):
        two_ue_grid(60.0, 150.0, 5.0, _sc(n_users=3))
    with pytest.raises(ValueError):
        two_ue_grid(60.0, 50.0, 5.0, sc)


@pytest.mark.parametrize("name", ["lo_db", "hi_db", "step_db"])
@pytest.mark.parametrize("bad, kind", [(math.nan, "finite"), (math.inf, "finite"), (True, "a number")])
def test_two_ue_grid_names_an_end_that_is_no_finite_number(name, bad, kind):
    # NaN failed in int(round(...)) as "cannot convert float NaN to
    # integer", and an infinite end as an OverflowError
    ends = {"lo_db": 60.0, "hi_db": 100.0, "step_db": 5.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be {kind}$"):
        two_ue_grid(ends["lo_db"], ends["hi_db"], ends["step_db"], _sc(n_users=2))


@pytest.mark.parametrize("lo, hi, step", [(-1e308, 1e308, 1.0), (0.0, 1e300, 1e-300)])
def test_two_ue_grid_names_its_ends_when_their_span_overflows(lo, hi, step):
    # finite ends whose span overflowed failed in int(round(...)) as
    # "cannot convert float infinity to integer", naming no argument
    with pytest.raises(ValueError, match=r"^\(hi_db - lo_db\) / step_db must be finite$"):
        two_ue_grid(lo, hi, step, _sc(n_users=2))


def test_path_losses_of_any_sign_are_accepted_and_others_named():
    grid, _ = two_ue_grid(-10, 0, 5, _sc(n_users=2))
    assert grid.tolist() == [-10.0, -5.0, 0.0]
    assert homogeneous_sweep([-3, 80.0], _sc(n_users=2))[0].beta[0] == 10.0**0.3
    for bad in (True, "95", math.nan):
        with pytest.raises(ValueError, match="^pl_db_grid entries must be "):
            homogeneous_sweep([80.0, bad], _sc(n_users=2))


def test_every_users_bits_are_pinned():
    # SHA-256 of the beta bytes of K=60 drops, taken before the generator
    # served a whole drop; any change to any user's draw shows here.
    sc = _sc(n_users=60, m_antennas=64)
    pins = {
        0: "76053d53622bb36bbfca47bb07b4de845c5c08c6e5337c6ce84d1e1148056cee",
        1: "8c702ea136cd1bc71d088867a06f39a0ea0c0cf4da1f7570661880d9918aff36",
        7: "a4b412f7bfc072d801d4f3d689b0e11ccca7bbcd35eb032e12eb0b2a9535a1af",
        2**63: "c8a5fa7c0c95936e4cd7aa051f897196e3ee4bdad0cd4fa5065b42949f0cdfad",
        2**64 - 1: "d37d3ed95a4d95cb72ab7430320d6d5ab2bfa102b8d7d89f44bac3b94d7677de",
    }
    for drop_id, digest in pins.items():
        assert hashlib.sha256(drop_ues(sc, drop_id).beta.tobytes()).hexdigest() == digest, drop_id
