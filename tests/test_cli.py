"""Command-line interface, run in-process through main()."""

import json

import numpy as np
import pytest

from dapalloc.cli import main

MC_SCENARIO = {
    "scenario": {"n_users": 3, "m_antennas": 16, "p_max": 0.1, "seed": 11},
    "n_drops": 3,
}


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_error(capsys):
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert "error" in payload
    return payload["error"]


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 12
    assert "all checks passed" in out


def test_validate_reports_solver_error_and_goes_on(monkeypatch, capsys):
    import dapalloc

    def fail(*args, **kwargs):
        raise dapalloc.SolverError("no bracket")

    monkeypatch.setattr(dapalloc, "solve_dapa", fail)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL optimizer bracket sign change: no bracket" in out
    assert "PASS scenario drops deterministic per (seed, drop)" in out


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
    cfg = _write_cfg(
        tmp_path,
        {
            "m_antennas": 64,
            "p_max": 0.01,
            "bandwidth_hz": 18e6,
            "beta": [1e-10],
            "noise_w": 7.2e-14,
            "algorithm": "GENIE",
        },
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "GENIE" in _read_error(capsys)["message"]


def test_solve_rejects_beta_and_pl_together(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "m_antennas": 64,
            "p_max": 0.01,
            "bandwidth_hz": 18e6,
            "beta": [1e-10],
            "pl_db": [100.0],
            "noise_w": 7.2e-14,
        },
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "beta" in _read_error(capsys)["message"]


def test_seed_must_fit_u64(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MC_SCENARIO)
    code = main(
        ["montecarlo", "--config", cfg, "--seed", "-5", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "u64" in _read_error(capsys)["message"]


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


def test_linklevel_rejects_unknown_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"m_antennas": 16, "n_users": 2,
                                "ibo_grid_db": [4.0], "bogus": 1})
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
        ("linklevel", {"linklevel": {"m_antennas": 16, "n_users": 2,
                                     "ibo_grid_db": [4.0]}, "seeds": 3}, "seeds"),
        ("hessian-check", {"n_point": 4}, "n_point"),
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
        ["validate", "--out", "x"],
        ["validate", "--config", "cfg.json"],
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
    assert main([command, "--seed", str(2**64), "--out", str(tmp_path)]) == 2
    assert "u64" in _read_error(capsys)["message"]
