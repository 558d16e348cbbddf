"""Curvature probes certifying the two-user objective is not concave."""

import numpy as np
import pytest

from dapalloc.nonconvexity import (
    HessianProbe,
    find_indefinite_point,
    hessian_eigs,
    probes_to_csv,
    reference_two_user_setup,
    scan_grid,
    sum_rate_2ue,
)
import nonconvexity_reference

CFG, UES = reference_two_user_setup()


def test_reference_setup_frozen():
    assert CFG.m_antennas == 64
    assert CFG.p_max == 0.01
    np.testing.assert_array_equal(UES.beta, [1e-11, 1e-7])
    np.testing.assert_array_equal(UES.noise_w, [5.97e-14, 5.97e-14])


def test_sum_rate_pin():
    # regression pin at the documented probe point
    got = sum_rate_2ue(1e-2, 1e-1, CFG, UES)
    assert got == pytest.approx(455295972.9079164, rel=1e-12)
    with pytest.raises(ValueError):
        sum_rate_2ue(-1e-3, 0.1, CFG, UES)
    with pytest.raises(ValueError):
        sum_rate_2ue(0.0, 0.0, CFG, UES)


def test_probe_matches_exact_hessian():
    """FD eigenvalues against the high-precision (mpmath) Hessian.

    Truncation is O(step^2); at the default step the agreement at this
    point was measured at ~1e-5 relative, frozen here with margin.
    """
    probe = hessian_eigs((1e-2, 1e-1), CFG, UES)
    assert isinstance(probe, HessianProbe)
    assert probe.step == pytest.approx(1.1e-5, rel=1e-12)
    exact = (-233525065473.75385, 22912977555.49965)  # mpmath, 30 digits
    assert probe.eigenvalues[0] == pytest.approx(exact[0], rel=1e-3)
    assert probe.eigenvalues[1] == pytest.approx(exact[1], rel=1e-3)
    assert not probe.flagged
    assert probe.mixed_rel_diff < 1e-4
    # this very point is the counterexample: concavity fails here
    assert probe.eigenvalues[0] < 0.0 < probe.eigenvalues[1]


def test_probe_determinism_pin():
    probe = hessian_eigs((1e-2, 1e-1), CFG, UES)
    assert probe.eigenvalues[0] == pytest.approx(-233525054713.2786, rel=1e-9)
    assert probe.eigenvalues[1] == pytest.approx(22913144839.064026, rel=1e-9)
    assert probe.mixed_rel_diff == pytest.approx(6.079416830106248e-06, rel=1e-6)


def test_concave_region_near_origin():
    # with both powers tiny the back-off is huge and the rate is a sum of
    # concave logs: both eigenvalues must come out negative
    probe = hessian_eigs((1e-5, 1e-5), CFG, UES)
    assert probe.eigenvalues[0] < 0
    assert probe.eigenvalues[1] < 0
    assert not probe.flagged


def test_step_validation():
    with pytest.raises(ValueError):
        hessian_eigs((1e-2, 1e-1), CFG, UES, step=0.0)
    with pytest.raises(ValueError):
        hessian_eigs((1e-6, 1e-1), CFG, UES)  # p1 below 2*default step
    one_user = type(UES)(beta=np.array([1e-10]), noise_w=np.array([1e-13]))
    with pytest.raises(ValueError):
        hessian_eigs((1e-2, 1e-1), CFG, one_user)
    # a third coordinate used to be dropped, and a lone one raised IndexError
    for point in [(1e-2, 1e-1, 7.0), (1e-2,), 1e-2, np.full((2, 2), 1e-2)]:
        with pytest.raises(ValueError, match=r"^probe_point must be a pair \(p1, p2\)$"):
            hessian_eigs(point, CFG, UES)


def test_scan_grid_skips_axis_hugging_points():
    probes = scan_grid(CFG, UES, n_points=8, p_min=1e-6, p_max=1.0)
    assert 0 < len(probes) <= 64
    for pr in probes:
        assert pr.p1 > 2 * pr.step
        assert pr.p2 > 2 * pr.step


def test_find_indefinite_point():
    witness = find_indefinite_point(CFG, UES, n_points=12)
    assert witness is not None
    assert witness.eigenvalues[0] < 0.0 < witness.eigenvalues[1]
    assert not witness.flagged
    # stability under halving is part of the contract; verify once more
    again = hessian_eigs((witness.p1, witness.p2), CFG, UES, step=0.5 * witness.step)
    assert again.eigenvalues[0] < 0.0 < again.eigenvalues[1]


def test_a_grid_without_a_witness_gives_none():
    # the probes hugging the p2 axis fail the step check and are skipped;
    # every other probe of this grid is concave
    probes = scan_grid(CFG, UES, n_points=8, p_min=1e-6, p_max=0.02)
    assert sum(p.flagged for p in probes) == 2
    assert all(p.eigenvalues[1] < 0.0 for p in probes if not p.flagged)
    assert find_indefinite_point(CFG, UES, n_points=8, p_min=1e-6, p_max=0.02) is None


def test_find_indefinite_point_stops_at_the_first_witness(monkeypatch):
    from dapalloc import nonconvexity

    def indefinite(probe):
        return not probe.flagged and probe.eigenvalues[0] < 0.0 < probe.eigenvalues[1]

    def halved(probe):
        return hessian_eigs((probe.p1, probe.p2), CFG, UES, step=0.5 * probe.step)

    probes = scan_grid(CFG, UES, n_points=12)
    expected = next(p for p in probes if indefinite(p) and indefinite(halved(p)))
    index = probes.index(expected)
    rows = []
    real = nonconvexity._rate_rows

    def counted(cfg, beta, noise, power, omega, *rest):
        rows.append(np.size(power))
        return real(cfg, beta, noise, power, omega, *rest)

    monkeypatch.setattr(nonconvexity, "_rate_rows", counted)
    assert find_indefinite_point(CFG, UES, n_points=12) == expected
    # 18 stencil points per probe: every probe of the grid rows up to the
    # witness's row, plus one halved-step probe per candidate up to the witness
    in_rows = sum(p.p1 <= expected.p1 for p in probes)
    rechecks = sum(indefinite(p) for p in probes[: index + 1])
    assert sum(rows) == 18 * (in_rows + rechecks) < 18 * len(probes)


@pytest.mark.parametrize(
    "n_points, p_min, p_max",
    [(12, 1e-6, 1.0), (8, 1e-6 * 10**0.37, 10**-0.21), (8, 1e-6 * 10**0.11, 10**-0.44)],
)
def test_row_scan_is_bitwise_the_per_probe_scan(tmp_path, n_points, p_min, p_max):
    # one evaluate call per grid row gives every stencil value bitwise its
    # scalar sum_rate_2ue call, so the table and the witness are the same bytes
    expected = list(nonconvexity_reference.grid_probes(CFG, UES, n_points, p_min, p_max))
    probes_to_csv(expected, str(tmp_path / "reference.csv"))
    probes_to_csv(scan_grid(CFG, UES, n_points, p_min, p_max), str(tmp_path / "rows.csv"))
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    witness = nonconvexity_reference.find_indefinite_point(expected, CFG, UES)
    assert witness is not None
    assert repr(find_indefinite_point(CFG, UES, n_points, p_min, p_max)) == repr(witness)
    point, step = (witness.p1, witness.p2), 0.5 * witness.step
    assert repr(hessian_eigs(point, CFG, UES, step)) == repr(
        nonconvexity_reference.hessian_eigs(point, CFG, UES, step)
    )


def test_probes_csv(tmp_path):
    probes = scan_grid(CFG, UES, n_points=5)
    path = tmp_path / "probes.csv"
    probes_to_csv(probes, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "p1,p2,step,eig_min,eig_max,grad_p1,grad_p2,mixed_rel_diff,flagged"
    assert len(lines) == len(probes) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(probes[0].p1, rel=1e-15)
    assert first[8] in ("0", "1")
