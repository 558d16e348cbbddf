"""Command-line interface, run in-process through main()."""

import argparse
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dapalloc.cli import _build_parser, main

MC_SCENARIO = {
    "scenario": {"n_users": 3, "m_antennas": 16, "p_max": 0.1, "seed": 11},
    "n_drops": 3,
}
SOLVE_CFG = {
    "m_antennas": 64, "p_max": 0.01, "bandwidth_hz": 18e6, "beta": [1e-10], "noise_w": 7.2e-14
}
LL_FLAT = {"m_antennas": 16, "n_users": 2, "ibo_grid_db": [4.0]}
README = Path(__file__).resolve().parents[1] / "README.md"


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_error(capsys):
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert "error" in payload
    return payload["error"]


def test_solve_outputs_allocation(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "m_antennas": 64,
            "p_max": 0.01,
            "bandwidth_hz": 18e6,
            "pl_db": [100.0, 120.0],
            "noise_w": 7.165929069962951e-14,
        },
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "DAPA-FPDA"
    assert payload["total_power_p"] > 0
    assert sum(payload["omega"]) == pytest.approx(1.0, abs=1e-9)
    assert len(payload["rates"]) == 2
    assert payload["sum_rate"] == pytest.approx(sum(payload["rates"]), rel=1e-12)
    on_disk = json.loads((tmp_path / "solve.json").read_text())
    assert on_disk == payload


def test_solve_without_out_writes_no_file(tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "m_antennas": 64,
            "p_max": 0.01,
            "bandwidth_hz": 18e6,
            "pl_db": [100.0],
            "noise_w": 7.165929069962951e-14,
        },
    )
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["solve", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["total_power_p"] > 0
    assert list(workdir.iterdir()) == []


def test_solve_beta_equivalent_to_pl(tmp_path, capsys):
    common = {"m_antennas": 64, "p_max": 0.01, "bandwidth_hz": 18e6, "noise_w": 7.2e-14}
    cfg_pl = _write_cfg(tmp_path, {**common, "pl_db": [100.0]}, "pl.json")
    cfg_beta = _write_cfg(tmp_path, {**common, "beta": [1e-10]}, "beta.json")
    assert main(["solve", "--config", cfg_pl, "--out", str(tmp_path)]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["solve", "--config", cfg_beta, "--out", str(tmp_path)]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a["total_power_p"] == pytest.approx(b["total_power_p"], rel=1e-12)


def test_solve_requires_config(capsys):
    assert main(["solve"]) == 2
    err = _read_error(capsys)
    assert err["type"] == "ValueError"


def test_solve_rejects_bad_algorithm(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**SOLVE_CFG, "algorithm": "GENIE"})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "GENIE" in _read_error(capsys)["message"]


def test_solve_rejects_beta_and_pl_together(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**SOLVE_CFG, "pl_db": [100.0]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "beta" in _read_error(capsys)["message"]


_BAD_SEED = {"type": "ValueError", "message": "seed must be an int in [0, 2**64)"}


def test_seed_must_fit_u64(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MC_SCENARIO)
    for seed in ["-5", str(2**64)]:
        code = main(["montecarlo", "--config", cfg, "--seed", seed, "--out", str(tmp_path)])
        assert code == 2
        assert _read_error(capsys) == _BAD_SEED


def _run_mc(tmp_path, sub, extra=None, capsys=None):
    out = tmp_path / sub
    cfg_payload = dict(MC_SCENARIO)
    if extra:
        cfg_payload.update(extra)
    cfg = _write_cfg(tmp_path, cfg_payload, f"{sub}.json")
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
    if capsys is not None:
        capsys.readouterr()
    return out


def test_montecarlo_outputs_and_determinism(tmp_path, capsys):
    out1 = _run_mc(tmp_path, "run1", capsys=capsys)
    out2 = _run_mc(tmp_path, "run2", capsys=capsys)
    names = sorted(p.name for p in out1.iterdir())
    assert names == [
        "montecarlo_DAPA-E.csv",
        "montecarlo_DAPA-FPDA.csv",
        "montecarlo_REF-E.csv",
        "montecarlo_REF-FPDA.csv",
        "montecarlo_summary.json",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    summary = json.loads((out1 / "montecarlo_summary.json").read_text())
    assert summary["n_drops"] == 3
    assert summary["mode"] == "plain"
    assert set(summary["montecarlo"]["algorithms"]) == {
        "DAPA-FPDA", "DAPA-E", "REF-FPDA", "REF-E",
    }


def test_montecarlo_worker_count_invisible(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MC_SCENARIO)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["montecarlo", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["montecarlo", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    capsys.readouterr()
    for p in sorted(out1.glob("*.csv")):
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_montecarlo_seed_flag_changes_results(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MC_SCENARIO)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["montecarlo", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["montecarlo", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    capsys.readouterr()
    a = (out1 / "montecarlo_REF-E.csv").read_bytes()
    b = (out2 / "montecarlo_REF-E.csv").read_bytes()
    assert a != b


def test_montecarlo_rapp_mode(tmp_path, capsys):
    out = _run_mc(tmp_path, "rapp", extra={"mode": "rapp", "n_drops": 2}, capsys=capsys)
    names = {p.name for p in out.iterdir()}
    assert "montecarlo_DAPA-FPDA.csv" in names
    assert "montecarlo_rapp_DAPA-FPDA.csv" in names
    summary = json.loads((out / "montecarlo_summary.json").read_text())
    assert "montecarlo_rapp" in summary
    # the smooth amplifier cannot beat the clipper on the same allocation
    soft = summary["montecarlo"]["algorithms"]["REF-E"]["sum_rate"]["median"]
    rapp = summary["montecarlo_rapp"]["algorithms"]["REF-E"]["sum_rate"]["median"]
    assert rapp <= soft


def test_montecarlo_icsi_mode(tmp_path, capsys):
    out = _run_mc(
        tmp_path, "icsi", extra={"mode": "icsi", "csi_delta": 0.1, "n_drops": 2},
        capsys=capsys,
    )
    summary = json.loads((out / "montecarlo_summary.json").read_text())
    perfect = summary["montecarlo"]["algorithms"]["REF-E"]["sum_rate"]["median"]
    icsi = summary["montecarlo_icsi"]["algorithms"]["REF-E"]["sum_rate"]["median"]
    assert icsi < perfect


@pytest.mark.parametrize(
    "scenario, extra",
    [
        # estimated fractions read 1 to within 1e-13 when the pilot SNR
        # left out the noise, and a REF-E rate rounded to 0
        ({"pilot_len": 10, "rho_ul_w": 0.2}, {"csi_delta": "estimated", "n_drops": 4}),
        # one ulp below 1 is a legal fraction; every REF-E rate rounds to 0
        ({}, {"csi_delta": 0.9999999999999999, "n_drops": 2}),
    ],
    ids=["estimated", "ref-e-rate-zero"],
)
def test_an_icsi_run_that_divided_by_a_zero_ref_e_rate_completes(tmp_path, capsys, scenario, extra):
    # both runs divided by a zero REF-E sum rate in the summary and exited 2
    sc = {"n_users": 6, "m_antennas": 16, "p_max": 0.1, "seed": 0, **scenario}
    cfg = _write_cfg(tmp_path, {"scenario": sc, "mode": "icsi", **extra})
    out = tmp_path / "icsi"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "montecarlo_summary.json").read_text())
    assert summary["montecarlo_icsi"]["algorithms"]["REF-E"]["sum_rate"]["n"] == extra["n_drops"]


def test_montecarlo_unknown_mode(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**MC_SCENARIO, "mode": "quantum"})
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "quantum" in _read_error(capsys)["message"]


def test_sweep_homogeneous(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {"n_users": 2, "m_antennas": 16, "p_max": 0.1, "seed": 0},
            "pl_db_grid": [95.0, 100.0, 105.0],
        },
    )
    out = tmp_path / "sweep"
    assert main(["sweep-homogeneous", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    csv = (out / "sweep_homogeneous_REF-E.csv").read_text().strip().splitlines()
    assert csv[0] == "pl_db,sum_rate,ibo_db"
    assert len(csv) == 4
    assert float(csv[1].split(",")[2]) == pytest.approx(6.0, abs=1e-12)
    summary = json.loads((out / "sweep_homogeneous_summary.json").read_text())
    assert summary["pl_db_grid"] == [95.0, 100.0, 105.0]


def test_grid_2ue(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {"n_users": 2, "m_antennas": 16, "p_max": 0.1, "seed": 0},
            "pl_lo_db": 95.0,
            "pl_hi_db": 105.0,
            "pl_step_db": 5.0,
        },
    )
    out = tmp_path / "grid"
    assert main(["grid-2ue", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "grid_2ue.csv").read_text().strip().splitlines()
    assert lines[0].startswith("pl1_db,pl2_db,")
    assert len(lines) == 10  # 3x3 grid plus header
    summary = json.loads((out / "grid_2ue_summary.json").read_text())
    assert summary["n_cells"] == 9


def test_linklevel(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "m_antennas": 16,
            "n_users": 2,
            "ibo_grid_db": [4.0],
            "fft_size": 128,
            "n_used_subcarriers": 48,
            "cp_len": 16,
            "n_symbols": 48,
            "seed": 3,
        },
    )
    out = tmp_path / "ll"
    assert main(["linklevel", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "worst |measured - analytic|" in stdout
    lines = (out / "linklevel.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    meas = float(lines[1].split(",")[4])
    assert meas == pytest.approx(30.437936276057705, rel=1e-12)


def test_linklevel_worst_error_reads_two_infinite_sdrs_as_equal(tmp_path, capsys):
    # at 20 dB both SDRs are +inf, and inf - inf would make the worst error nan
    cfg = _write_cfg(tmp_path, {"m_antennas": 64, "n_users": 1, "ibo_grid_db": [20.0, 3.0],
                                "fft_size": 128, "n_used_subcarriers": 32, "cp_len": 8,
                                "n_symbols": 24, "seed": 0})
    out = tmp_path / "ll"
    assert main(["linklevel", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "linklevel.csv").read_text().splitlines()[1:]]
    assert rows[0][4:6] == ["inf", "inf"]
    worst = abs(float(rows[1][4]) - float(rows[1][5]))
    assert math.isfinite(worst)
    assert capsys.readouterr().out.endswith(f"worst |measured - analytic| = {worst:.3f} dB\n")


def test_linklevel_rejects_unknown_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**LL_FLAT, "bogus": 1})
    assert main(["linklevel", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "bad linklevel config" in _read_error(capsys)["message"]


def test_hessian_check(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"n_points": 12})
    out = tmp_path / "hess"
    assert main(["hessian-check", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    summary = json.loads((out / "hessian_summary.json").read_text())
    assert summary == json.loads(stdout)
    assert summary["indefinite_found"] is True
    eigs = summary["witness"]["eigenvalues"]
    assert eigs[0] < 0 < eigs[1]
    probes = (out / "hessian_probes.csv").read_text().strip().splitlines()
    assert len(probes) == summary["n_probes"] + 1


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "JSON object" in _read_error(capsys)["message"]


def test_scenario_unknown_key_surfaces(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, {"scenario": {"n_users": 3, "m_antennas": 16, "p_max": 0.1, "oops": 1}}
    )
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "oops" in _read_error(capsys)["message"]


@pytest.mark.parametrize(
    "command,payload,typo",
    [
        ("solve", {"algoritm": "REF-E"}, "algoritm"),
        ("sweep-homogeneous", {**MC_SCENARIO, "pl_db_gird": [100.0]}, "pl_db_gird"),
        ("grid-2ue", {**MC_SCENARIO, "pl_step": 5.0}, "pl_step"),
        ("montecarlo", {**MC_SCENARIO, "mod": "rapp"}, "mod"),
        ("linklevel", {**LL_FLAT, "seeds": 3}, "seeds"),
        ("hessian-check", {"n_point": 4}, "n_point"),
        # a key of another montecarlo mode
        ("montecarlo", {**MC_SCENARIO, "smoothness_p": 3.0}, "smoothness_p"),
        ("montecarlo", {**MC_SCENARIO, "csi_delta": 0.1}, "csi_delta"),
        ("montecarlo", {**MC_SCENARIO, "mode": "rapp", "csi_delta": 0.1}, "csi_delta"),
        ("montecarlo", {**MC_SCENARIO, "mode": "icsi", "smoothness_p": 3.0}, "smoothness_p"),
        # linklevel takes flat keys only
        ("linklevel", {"linklevel": LL_FLAT}, "'linklevel'"),
        ("linklevel", {**LL_FLAT, "scenario": {"bogus": 1}}, "scenario"),
        # solve hands its values to SystemConfig as given: a float M is rejected
        ("solve", {**SOLVE_CFG, "m_antennas": 64.7}, "m_antennas"),
        ("solve", {**SOLVE_CFG, "m_antennas": 64.0}, "m_antennas"),
        ("solve", {**SOLVE_CFG, "p_max": "0.01"}, "p_max"),
    ],
)
def test_unknown_config_key_rejected(tmp_path, capsys, command, payload, typo):
    cfg = _write_cfg(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert typo in _read_error(capsys)["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["linklevel", "--workers", "4"],
        ["linklevel", "--delta", "1e-9"],
        ["hessian-check", "--seed", "3"],
        ["solve", "--workers", "2"],
        ["sweep-homogeneous", "--workers", "2"],
        ["hessian-check", "--workers", "2"],
        ["solve", "--seed", "3"],
        ["solve", "--delta", "1e-9"],
        ["sweep-homogeneous", "--delta", "1e-9"],
        ["grid-2ue", "--delta", "1e-9"],
        ["montecarlo", "--delta", "1e-9"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-homogeneous", "grid-2ue", "linklevel"])
def test_seed_must_fit_u64_wherever_it_is_taken(tmp_path, capsys, command):
    # with no config, too: the seed is checked before the scenario is built
    for seed in [str(2**64), "-5"]:
        assert main([command, "--seed", seed, "--out", str(tmp_path)]) == 2
        assert _read_error(capsys) == _BAD_SEED


def _readme_flag_table():
    lines = README.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("| subcommand"))
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[header + 2:]):
        (name,), flags = (re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|"))
        table[name] = sorted(flags)
    return table


def test_readme_flag_table_matches_the_parser():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert _readme_flag_table() == registered


@pytest.mark.parametrize("command", ["montecarlo", "grid-2ue"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_fewer_than_one_worker_is_an_error_and_writes_nothing(tmp_path, capsys, command, workers):
    grid = {
        "scenario": {"n_users": 2, "m_antennas": 16, "p_max": 0.1, "seed": 0},
        "pl_lo_db": 100.0, "pl_hi_db": 110.0, "pl_step_db": 10.0,
    }
    cfg = _write_cfg(tmp_path, MC_SCENARIO if command == "montecarlo" else grid)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": "workers must be a positive int"}
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, key",
    [("montecarlo", MC_SCENARIO, "n_drops"), ("hessian-check", {}, "n_points")],
)
@pytest.mark.parametrize("value", [2.9, True, 0, -3, "3"])
def test_a_count_that_is_not_a_positive_int_is_an_error(tmp_path, capsys, command, payload, key, value):
    # int() used to truncate 2.9 to 2 and read true as 1, and the run went on
    cfg = _write_cfg(tmp_path, {**payload, key: value})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": f"{key} must be a positive int"}
    assert not out.exists()


def test_sweep_unknown_algorithm_is_a_value_error(tmp_path, capsys):
    payload = {"scenario": MC_SCENARIO["scenario"], "pl_db_grid": [100.0], "algorithms": ["FOO"]}
    cfg = _write_cfg(tmp_path, payload)
    assert main(["sweep-homogeneous", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": "unknown algorithm label 'FOO'"}
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"algorithms": []}, "algorithms must be a non-empty sequence of strategy labels"),
        ({"algorithms": "REF-E"}, "algorithms must be a non-empty sequence of strategy labels"),
        ({"mode": "icsi", "csi_delta": False}, "delta_policy must be a number"),
        ({"mode": "rapp", "smoothness_p": True}, "smoothness_p must be a number"),
        ({"mode": "rapp", "smoothness_p": "3"}, "smoothness_p must be a number"),
    ],
    ids=["no-strategies", "str-strategies", "bool-csi-delta", "bool-p", "str-p"],
)
def test_a_montecarlo_value_of_the_wrong_kind_is_an_error_and_writes_nothing(
    tmp_path, capsys, extra, message
):
    # each ran before: no strategies and an exit of 0, labels 'R', 'E', ...,
    # a fraction of 0.0, and p = 1 or 3
    cfg = _write_cfg(tmp_path, {**MC_SCENARIO, **extra})
    out = tmp_path / "x"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": message}
    assert not out.exists()


_SWEEP_CFG = {"scenario": MC_SCENARIO["scenario"], "pl_db_grid": [100.0]}
_NO_LABELS = "algorithms must be a non-empty sequence of strategy labels"
_TWICE = "algorithms lists 'REF-E' twice"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("solve", {**SOLVE_CFG, "algorithm": ["DAPA-E"]}, "unknown algorithm label ['DAPA-E']"),
        ("montecarlo", {**MC_SCENARIO, "algorithms": [["REF-E"]]}, _NO_LABELS),
        ("montecarlo", {**MC_SCENARIO, "algorithms": {"REF-E": 1}}, _NO_LABELS),
        ("sweep-homogeneous", {**_SWEEP_CFG, "algorithms": {"REF-E": 1}}, _NO_LABELS),
        ("montecarlo", {**MC_SCENARIO, "algorithms": ["REF-E", "REF-E"]}, _TWICE),
        ("sweep-homogeneous", {**_SWEEP_CFG, "algorithms": ["REF-E", "REF-E"]}, _TWICE),
    ],
    ids=["solve-list", "mc-nested-list", "mc-object", "sweep-object", "mc-repeat", "sweep-repeat"],
)
def test_a_strategy_label_of_the_wrong_kind_is_named_and_writes_nothing(
    tmp_path, capsys, command, payload, message
):
    # a list label failed as "unhashable type: 'list'", an object ran as
    # its keys, and a repeated label wrote every CSV row twice
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, kind", [(5, "int"), ("nusers", "str"), ([3, 16], "list")], ids=["number", "string", "list"]
)
def test_a_scenario_that_is_not_an_object_is_named_and_writes_nothing(tmp_path, capsys, scenario, kind):
    # a number failed as "'int' object is not iterable", and a string was
    # read as its letters ("unknown scenario keys: ['e', 'n', ...]")
    cfg = _write_cfg(tmp_path, {**MC_SCENARIO, "scenario": scenario})
    out = tmp_path / "x"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 2
    message = f"scenario must be an object of scenario keys, not {kind}"
    assert _read_error(capsys) == {"type": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "drop, message",
    [
        (("beta", "pl_db"), "config needs a 'beta' or 'pl_db' array"),
        (("noise_w",), "config needs 'noise_w' (scalar watts or per-user array)"),
    ],
)
def test_solve_names_a_missing_user_key(tmp_path, capsys, drop, message):
    cfg = _write_cfg(tmp_path, {k: v for k, v in SOLVE_CFG.items() if k not in drop})
    assert main(["solve", "--config", cfg]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "values, message",
    [
        ({"beta": ["1e-10", "2e-10"]}, "beta entries must be a number"),
        ({"beta": [True, 1e-10]}, "beta entries must be a number"),
        ({"beta": "1e-10"}, "beta must be a number"),
        ({"pl_db": [True, 100]}, "pl_db entries must be a number"),
        ({"pl_db": ["100"]}, "pl_db entries must be a number"),
        ({"pl_db": False}, "pl_db must be a number"),
        ({"noise_w": "7e-14"}, "noise_w must be a number"),
        ({"noise_w": [True]}, "noise_w entries must be a number"),
    ],
    ids=["str-beta", "bool-beta", "str-beta-scalar", "bool-pl", "str-pl", "bool-pl-scalar",
         "str-noise", "bool-noise"],
)
def test_solve_rejects_a_user_value_that_is_no_number(tmp_path, capsys, values, message):
    # a float conversion read "1e-10" as 1e-10 and true as a 1 dB path loss,
    # and the solve went on
    payload = {**SOLVE_CFG, **values}
    if "pl_db" in values:
        del payload["beta"]
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "x"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": message}
    assert not out.exists()


def test_sweep_homogeneous_default_grid(tmp_path, capsys):
    scenario = {"n_users": 2, "m_antennas": 16, "p_max": 0.1, "seed": 0}
    cfg = _write_cfg(tmp_path, {"scenario": scenario, "algorithms": ["REF-E"]})
    out = tmp_path / "sweep"
    assert main(["sweep-homogeneous", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "sweep_homogeneous_summary.json").read_text())
    assert summary["pl_db_grid"] == [80.0 + 2.5 * i for i in range(21)]
    assert len((out / "sweep_homogeneous_REF-E.csv").read_text().splitlines()) == 22


def test_linklevel_seed_flag_is_the_config_seed(tmp_path, capsys):
    small = {**LL_FLAT, "fft_size": 64, "n_used_subcarriers": 24, "cp_len": 8, "n_symbols": 24}
    flag, key = tmp_path / "flag", tmp_path / "key"
    cfg = _write_cfg(tmp_path, small, "flag.json")
    assert main(["linklevel", "--config", cfg, "--seed", "7", "--out", str(flag)]) == 0
    cfg = _write_cfg(tmp_path, {**small, "seed": 7}, "key.json")
    assert main(["linklevel", "--config", cfg, "--out", str(key)]) == 0
    cfg = _write_cfg(tmp_path, small, "none.json")
    assert main(["linklevel", "--config", cfg, "--out", str(tmp_path / "none")]) == 0
    capsys.readouterr()
    csv = (flag / "linklevel.csv").read_bytes()
    assert csv == (key / "linklevel.csv").read_bytes()
    assert csv != (tmp_path / "none" / "linklevel.csv").read_bytes()


GRID_2UE = {
    "scenario": {"n_users": 2, "m_antennas": 16, "p_max": 0.1, "seed": 0},
    "pl_lo_db": 95.0, "pl_hi_db": 105.0, "pl_step_db": 5.0,
}
SWEEP = {"scenario": GRID_2UE["scenario"], "pl_db_grid": [95.0, 100.0]}


@pytest.mark.parametrize(
    "command, payload, key, value, message",
    [
        ("grid-2ue", GRID_2UE, "pl_lo_db", True, "pl_lo_db must be a number"),
        ("grid-2ue", GRID_2UE, "pl_hi_db", "95", "pl_hi_db must be a number"),
        ("grid-2ue", GRID_2UE, "pl_step_db", 0, "pl_step_db must be positive"),
        ("grid-2ue", GRID_2UE, "pl_step_db", -5.0, "pl_step_db must be positive"),
        ("sweep-homogeneous", SWEEP, "pl_db_grid", [True, 95.0], "pl_db_grid entries must be a number"),
        ("sweep-homogeneous", SWEEP, "pl_db_grid", ["4", 95.0], "pl_db_grid entries must be a number"),
        ("sweep-homogeneous", SWEEP, "pl_db_grid", "95", "pl_db_grid must be a list of numbers"),
        ("sweep-homogeneous", SWEEP, "pl_db_grid", True, "pl_db_grid must be a list of numbers"),
    ],
)
def test_a_path_loss_that_is_no_finite_number_is_an_error_and_writes_nothing(
    tmp_path, capsys, command, payload, key, value, message
):
    # float() read true as 1 dB and "95" as 95 dB, and the run went on;
    # a pl_db_grid of true failed iterating it, naming no key
    cfg = _write_cfg(tmp_path, {**payload, key: value})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert _read_error(capsys) == {"type": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, as_ints",
    [
        ("grid-2ue", GRID_2UE, {"pl_lo_db": 95, "pl_hi_db": 105, "pl_step_db": 5}),
        ("sweep-homogeneous", SWEEP, {"pl_db_grid": [95, 100]}),
    ],
)
def test_an_int_path_loss_gives_the_bytes_of_its_float(tmp_path, capsys, command, payload, as_ints):
    runs = []
    for name, config in (("float", payload), ("int", {**payload, **as_ints})):
        out = tmp_path / name
        assert main([command, "--config", _write_cfg(tmp_path, config, f"{name}.json"),
                     "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    assert runs[0] == runs[1]


def test_hessian_check_rates_each_probe_once(tmp_path, capsys, monkeypatch):
    # the witness search reads the probes the scan wrote instead of
    # scanning the grid again; only its half-step re-checks are rated anew
    from dapalloc import nonconvexity

    rows = []
    real = nonconvexity._rate_rows

    def counted(cfg, beta, noise, power, omega, *rest):
        rows.append(np.size(power))
        return real(cfg, beta, noise, power, omega, *rest)

    monkeypatch.setattr(nonconvexity, "_rate_rows", counted)
    cfg = _write_cfg(tmp_path, {"n_points": 12})
    assert main(["hessian-check", "--config", cfg, "--out", str(tmp_path / "hess")]) == 0
    summary = json.loads(capsys.readouterr().out)
    # 18 stencil points per probe; on this grid the first candidate is the
    # witness, so its half-step re-check is the one probe rated twice
    assert sum(rows) == 18 * (summary["n_probes"] + 1)
