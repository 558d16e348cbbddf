"""Monte-Carlo orchestration: determinism, ordering, summaries, CSV."""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dapalloc import bench
from dapalloc.bench import (
    DEFAULT_ALGORITHMS,
    CcdfSeries,
    DropResult,
    ccdf,
    evaluate_icsi_mode,
    evaluate_rapp_mode,
    grid_2ue,
    run_montecarlo,
    summarize,
    sweep_homogeneous,
    write_drop_results_csv,
    write_summary_json,
    write_table_csv,
)
from dapalloc.dapa import SolverError
from dapalloc.scenario import ScenarioConfig, two_ue_grid

SMALL_SC = ScenarioConfig(n_users=4, m_antennas=64, p_max=0.1, seed=17)


def test_ccdf_frozen():
    s = ccdf([3.0, 1.0, 2.0], label="x")
    assert isinstance(s, CcdfSeries)
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(s.probabilities, [2 / 3, 1 / 3, 0.0], rtol=1e-15)
    assert s.label == "x"
    with pytest.raises(ValueError):
        ccdf([])


def test_drop_result_rejects_unknown_label():
    with pytest.raises(ValueError):
        DropResult(0, "GENIE", 1.0, 1.0, 6.0, 0.5, np.array([1.0]))


def test_montecarlo_shape_and_order():
    results = run_montecarlo(SMALL_SC, n_drops=6)
    assert len(results) == 6 * len(DEFAULT_ALGORITHMS)
    for i, r in enumerate(results):
        assert r.drop_id == i // 4
        assert r.algorithm == DEFAULT_ALGORITHMS[i % 4]
        assert r.error is None
        assert r.rates.shape == (4,)
        assert r.sum_rate == pytest.approx(float(np.sum(r.rates)), rel=1e-12)
        assert 0.25 <= r.omega_max <= 1.0 + 1e-12


MODES = {
    "run_montecarlo": lambda workers, n: (run_montecarlo(SMALL_SC, n_drops=n, workers=workers),),
    "evaluate_rapp_mode": lambda workers, n: evaluate_rapp_mode(SMALL_SC, n, workers=workers),
    "evaluate_icsi_mode": lambda workers, n: evaluate_icsi_mode(SMALL_SC, n, workers=workers),
}


@pytest.mark.parametrize("mode", list(MODES))
def test_montecarlo_deterministic_across_workers(mode):
    """Worker count is an implementation detail: results must be identical.
    So is the chunking: the serial run solves 7 drops as one chunk, two
    workers as chunks of 3 and 4."""
    for n_drops in (6, 7):
        for serial, parallel in zip(MODES[mode](1, n_drops), MODES[mode](2, n_drops), strict=True):
            _assert_bitwise_equal(serial, parallel)
            assert [r.drop_id for r in serial[:: len(DEFAULT_ALGORITHMS)]] == list(range(n_drops))


def _assert_bitwise_equal(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.drop_id == b.drop_id
        assert a.algorithm == b.algorithm
        assert a.sum_rate == b.sum_rate  # bitwise
        assert np.array_equal(a.rates, b.rates)
        assert (a.total_power_p, a.ibo_db, a.omega_max, a.error) == (
            b.total_power_p, b.ibo_db, b.omega_max, b.error
        )


def _raise(exc):
    def strategy(ues, cfg):
        raise exc

    return strategy


def test_solver_failure_becomes_nan_row(monkeypatch):
    monkeypatch.setitem(bench.ALGORITHMS, "DAPA-E", _raise(SolverError("no bracket")))
    soft, rapp = evaluate_rapp_mode(SMALL_SC, n_drops=2)
    for results in (soft, rapp):
        assert len(results) == 2 * len(DEFAULT_ALGORITHMS)
        for r in results:
            if r.algorithm == "DAPA-E":
                assert r.error == "no bracket"
                assert math.isnan(r.sum_rate) and np.all(np.isnan(r.rates))
            else:
                assert r.error is None and math.isfinite(r.sum_rate)


def test_failure_log_is_drop_major_across_chunks(monkeypatch, caplog):
    # Each chunk solves strategy by strategy, but the failures are logged
    # drop by drop once every chunk is back.  Threads stand in for the
    # worker processes, so the injected strategies reach every chunk.
    for label in ("DAPA-E", "REF-E"):
        monkeypatch.setitem(bench.ALGORITHMS, label, _raise(SolverError("no bracket")))
    monkeypatch.setattr(bench, "ProcessPoolExecutor", ThreadPoolExecutor)
    n_drops = 7
    run_montecarlo(SMALL_SC, n_drops=n_drops, workers=2)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"drop {d}, {label} failed: no bracket" for d in range(n_drops) for label in ("DAPA-E", "REF-E")
    ]


def test_programming_error_propagates(monkeypatch):
    monkeypatch.setitem(bench.ALGORITHMS, "DAPA-E", _raise(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        evaluate_rapp_mode(SMALL_SC, n_drops=2)


def test_montecarlo_per_drop_dominance():
    results = run_montecarlo(SMALL_SC, n_drops=8)
    by_drop = {}
    for r in results:
        by_drop.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate
    for drop, rates in by_drop.items():
        assert rates["DAPA-FPDA"] >= rates["REF-E"] * (1 - 1e-9), drop
        assert rates["DAPA-FPDA"] >= rates["DAPA-E"] * (1 - 1e-9), drop
        assert rates["REF-FPDA"] >= rates["REF-E"] * (1 - 1e-9), drop


def test_montecarlo_algorithm_subset():
    results = run_montecarlo(SMALL_SC, algorithms=("REF-E",), n_drops=3)
    assert [r.algorithm for r in results] == ["REF-E"] * 3


def test_rapp_mode_paired_and_never_better():
    soft, rapp = evaluate_rapp_mode(SMALL_SC, n_drops=5)
    assert len(soft) == len(rapp) == 5 * 4
    for a, b in zip(soft, rapp):
        assert (a.drop_id, a.algorithm) == (b.drop_id, b.algorithm)
        # same allocation, so the back-off must agree...
        assert a.ibo_db == b.ibo_db
        assert a.total_power_p == b.total_power_p
        # ...and the smooth amplifier can only lose rate at p = 2
        assert b.sum_rate <= a.sum_rate * (1 + 1e-12)


def test_icsi_mode_uniform_delta():
    perfect, imperfect = evaluate_icsi_mode(SMALL_SC, n_drops=5, delta_policy=0.1)
    for a, b in zip(perfect, imperfect):
        assert (a.drop_id, a.algorithm) == (b.drop_id, b.algorithm)
        assert b.sum_rate < a.sum_rate  # estimation error always costs rate here


def test_icsi_mode_zero_delta_identical():
    perfect, imperfect = evaluate_icsi_mode(SMALL_SC, n_drops=3, delta_policy=0.0)
    for a, b in zip(perfect, imperfect):
        assert a.sum_rate == b.sum_rate  # bitwise
        assert np.array_equal(a.rates, b.rates)


def test_icsi_mode_estimated_requires_pilots():
    with pytest.raises(ValueError):
        evaluate_icsi_mode(SMALL_SC, n_drops=2, delta_policy="estimated")
    with pytest.raises(ValueError):
        evaluate_icsi_mode(SMALL_SC, n_drops=2, delta_policy=1.5)
    sc = ScenarioConfig(
        n_users=4, m_antennas=64, p_max=0.1, seed=17, pilot_len=60, rho_ul_w=0.2
    )
    perfect, imperfect = evaluate_icsi_mode(sc, n_drops=2, delta_policy="estimated")
    for a, b in zip(perfect, imperfect):
        assert b.sum_rate <= a.sum_rate


def test_sweep_homogeneous_columns():
    rows = sweep_homogeneous(SMALL_SC, [90.0, 100.0, 110.0])
    assert len(rows) == 3
    assert rows[0]["pl_db"] == 90.0
    for label in DEFAULT_ALGORITHMS:
        assert f"{label}_sum_rate" in rows[0]
        assert f"{label}_ibo_db" in rows[0]
    # identical users: joint optimization reduces to the equal split
    for row in rows:
        assert row["DAPA-FPDA_sum_rate"] == pytest.approx(
            row["DAPA-E_sum_rate"], rel=1e-9
        )
        assert row["DAPA-FPDA_ibo_db"] == pytest.approx(
            row["DAPA-E_ibo_db"], abs=1e-6
        )
    # REF strategies pin the back-off at 6 dB everywhere
    assert rows[1]["REF-E_ibo_db"] == pytest.approx(6.0, abs=1e-12)


def test_grid_2ue_records():
    sc = ScenarioConfig(n_users=2, m_antennas=64, p_max=0.1, seed=17)
    records = grid_2ue(sc, two_ue_grid(90.0, 110.0, 10.0, sc))
    assert len(records) == 9
    cell = {(r["pl1_db"], r["pl2_db"]): r for r in records}
    assert set(cell) == {(a, b) for a in (90.0, 100.0, 110.0) for b in (90.0, 100.0, 110.0)}
    diag = cell[(100.0, 100.0)]
    assert diag["omega1"] == pytest.approx(0.5, abs=1e-9)
    assert diag["sum_rate_ratio_vs_ref_e"] >= 1.0 - 1e-9
    # symmetry of the ratio across the diagonal
    assert cell[(90.0, 110.0)]["sum_rate_ratio_vs_ref_e"] == pytest.approx(
        cell[(110.0, 90.0)]["sum_rate_ratio_vs_ref_e"], rel=1e-9
    )


def test_grid_2ue_failed_cell_is_nan(monkeypatch, caplog):
    monkeypatch.setitem(bench.ALGORITHMS, "DAPA-FPDA", _raise(SolverError("no bracket")))
    sc = ScenarioConfig(n_users=2, m_antennas=64, p_max=0.1, seed=17)
    (record,) = grid_2ue(sc, two_ue_grid(100.0, 100.0, 10.0, sc))
    assert record["pl1_db"] == record["pl2_db"] == 100.0
    for key in ("sum_rate_ratio_vs_ref_e", "omega1", "ibo_db"):
        assert math.isnan(record[key]), key
    assert "grid cell 0, DAPA-FPDA failed: no bracket" in caplog.text


def test_sweep_failed_point_is_nan_and_logged_as_a_sweep_point(monkeypatch, caplog):
    monkeypatch.setitem(bench.ALGORITHMS, "DAPA-E", _raise(SolverError("no bracket")))
    rows = sweep_homogeneous(SMALL_SC, [90.0, 100.0], algorithms=("DAPA-E", "REF-E"))
    for row in rows:
        assert math.isnan(row["DAPA-E_sum_rate"]) and math.isnan(row["DAPA-E_ibo_db"])
        assert math.isfinite(row["REF-E_sum_rate"])
    assert "sweep point 1, DAPA-E failed: no bracket" in caplog.text
    assert "drop " not in caplog.text


def test_summarize_structure():
    results = run_montecarlo(SMALL_SC, n_drops=6)
    s = summarize(results)
    assert set(s["algorithms"]) == set(DEFAULT_ALGORITHMS)
    block = s["algorithms"]["DAPA-FPDA"]
    assert block["failures"] == 0
    assert block["sum_rate"]["n"] == 6
    assert block["sum_rate"]["q1"] <= block["sum_rate"]["median"] <= block["sum_rate"]["q3"]
    ratio = block["sum_rate_ratio_vs_ref_e"]
    assert ratio["median"] >= 1.0 - 1e-9
    assert "sum_rate_ratio_vs_ref_e" not in s["algorithms"]["REF-E"]


def test_drop_csv_round_trip(tmp_path):
    results = run_montecarlo(SMALL_SC, n_drops=3, algorithms=("DAPA-FPDA",))
    path = tmp_path / "drops.csv"
    write_drop_results_csv(results, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "drop_id,algorithm,sum_rate,total_power_p,ibo_db,omega_max,"
        "rate_0,rate_1,rate_2,rate_3"
    )
    assert len(lines) == 4
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert row[1] == "DAPA-FPDA"
    # 17 significant digits survive the round trip exactly
    assert float(row[2]) == results[0].sum_rate
    assert float(row[6]) == results[0].rates[0]
    with pytest.raises(ValueError):
        write_drop_results_csv([], str(path))


def test_table_csv(tmp_path):
    rows = [{"a": 1.5, "b": "x"}, {"a": 2.5, "b": "y"}]
    path = tmp_path / "t.csv"
    write_table_csv(rows, str(path))
    assert path.read_text() == "a,b\n1.5,x\n2.5,y\n"
    with pytest.raises(ValueError):
        write_table_csv([], str(path))


def test_summary_json(tmp_path):
    path = tmp_path / "s.json"
    write_summary_json({"b": 1, "a": math.nan}, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert loaded["b"] == 1
    assert math.isnan(loaded["a"])


TWO_UE_SC = ScenarioConfig(n_users=2, m_antennas=64, p_max=0.1, seed=17)


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_montecarlo(SMALL_SC, n_drops=5, workers=0),
        lambda: evaluate_rapp_mode(SMALL_SC, 5, workers=-1),
        lambda: evaluate_icsi_mode(SMALL_SC, 5, workers=0),
        lambda: grid_2ue(TWO_UE_SC, two_ue_grid(90.0, 110.0, 10.0, TWO_UE_SC), workers=0),
    ],
    ids=["montecarlo", "rapp", "icsi", "grid"],
)
def test_fewer_than_one_worker_is_rejected(run):
    # it used to solve nothing (and return no rows) or fail inside zip
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_montecarlo(SMALL_SC, algorithms=("FOO",), n_drops=2),
        lambda: sweep_homogeneous(SMALL_SC, [90.0], algorithms=("FOO",)),
    ],
    ids=["montecarlo", "sweep"],
)
def test_unknown_algorithm_label_is_a_value_error_on_every_path(run):
    with pytest.raises(ValueError, match="unknown algorithm label 'FOO'"):
        run()


@pytest.mark.parametrize("algorithms", [(), [], "REF-E"], ids=["tuple", "list", "str"])
@pytest.mark.parametrize(
    "run",
    [
        lambda algorithms: run_montecarlo(SMALL_SC, algorithms=algorithms, n_drops=2),
        lambda algorithms: evaluate_rapp_mode(SMALL_SC, 2, algorithms),
        lambda algorithms: evaluate_icsi_mode(SMALL_SC, 2, 0.1, algorithms),
        lambda algorithms: sweep_homogeneous(SMALL_SC, [90.0], algorithms),
    ],
    ids=["montecarlo", "rapp", "icsi", "sweep"],
)
def test_an_empty_or_string_strategy_list_is_rejected(run, algorithms):
    # an empty list ran with no strategies (a sweep gave rows of pl_db
    # alone), and "REF-E" was read label by label, as 'R', 'E', ...
    with pytest.raises(ValueError, match="^algorithms must be a non-empty sequence of strategy labels$"):
        run(algorithms)


@pytest.mark.parametrize(
    "policy", [False, True, None, [0.1], "0.1"], ids=["false", "true", "none", "list", "str"]
)
def test_a_policy_that_is_no_fraction_or_estimated_is_rejected(policy):
    # False ran as the fraction 0.0, and True failed only on the range
    with pytest.raises(ValueError, match="^delta_policy must be a float or 'estimated'$"):
        evaluate_icsi_mode(SMALL_SC, 2, policy)


def test_summary_of_a_run_whose_every_drop_failed(monkeypatch):
    for label in DEFAULT_ALGORITHMS:
        monkeypatch.setitem(bench.ALGORITHMS, label, _raise(SolverError("no bracket")))
    s = summarize(run_montecarlo(SMALL_SC, n_drops=2))
    for block in s["algorithms"].values():
        assert block["failures"] == 2
        for quartiles in (block["sum_rate"], block["ibo_db"], block["omega_max"]):
            assert quartiles["n"] == 0
            assert all(math.isnan(quartiles[key]) for key in ("median", "q1", "q3"))
    assert s["algorithms"]["DAPA-FPDA"]["sum_rate_ratio_vs_ref_e"]["n"] == 0


def test_empty_run_is_rejected():
    with pytest.raises(ValueError, match="at least one drop"):
        run_montecarlo(SMALL_SC, n_drops=0)
    with pytest.raises(ValueError, match="at least one sweep point"):
        sweep_homogeneous(SMALL_SC, [])


def test_rapp_chunk_rates_each_distinct_power_once(monkeypatch):
    # One chunk of 4 drops: DAPA-FPDA and DAPA-E give each drop its own
    # total power, REF-FPDA and REF-E share one power over all drops, so
    # the 16 allocations hold 9 distinct powers.  Each is rated once under
    # the Rapp law, on one float back-off.
    from dapalloc import metrics

    real, calls = metrics.bussgang_gain_rapp, []

    def counting(psi, p):
        calls.append(psi)
        return real(psi, p)

    monkeypatch.setattr(metrics, "bussgang_gain_rapp", counting)
    sc = ScenarioConfig(n_users=60, m_antennas=64, p_max=0.1, seed=2024)
    _, rapp = evaluate_rapp_mode(sc, 4)
    assert all(r.error is None for r in rapp)
    assert len({r.total_power_p for r in rapp}) == 9
    assert len(calls) == 9
    assert all(type(psi) is float for psi in calls)
