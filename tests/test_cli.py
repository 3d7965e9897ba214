import json

import numpy as np
import pytest

import eigenball as eb
from eigenball.cli import main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_cli(tmp_path, cfg, command=None, extra=()):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    argv = [command or cfg["command"], "--config", str(cfg_path),
            "--out-dir", str(out), *extra]
    return main(argv), out


BASE_SOLVE = {
    "command": "solve",
    "operator": {"kind": "pucci_minus", "a": 1.0, "A": 1.0, "alpha": 0.0},
    "coefficients": {"b": "const:0", "c": "const:-1", "g": "const:-1"},
    "grid": {"R": 1.0, "N_dim": 2, "n": 101},
    "solver": {"lambda": 0.0},
    "seed": 0,
}


def test_solve_roundtrip(tmp_path):
    code, out = run_cli(tmp_path, BASE_SOLVE)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["config"]["grid"]["n"] == 101
    csv = (out / "solution.csv").read_text()
    assert csv.startswith("r,u\n")
    u = eb.GridFunction.from_csv(out / "solution.csv", N_dim=2)
    assert np.abs(u.values - 1.0).max() < 1e-8


def test_solve_byte_reproducible(tmp_path):
    code1, out1 = run_cli(tmp_path, BASE_SOLVE)
    cfg_path = write_config(tmp_path, BASE_SOLVE, name="config2.json")
    out2 = tmp_path / "out2"
    code2 = main(["solve", "--config", str(cfg_path), "--out-dir", str(out2)])
    assert code1 == code2 == 0
    for name in ("report.json", "solution.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_invalid_grid_exits_3(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["grid"]["n"] = 2
    code, out = run_cli(tmp_path, cfg)
    assert code == 3
    assert not out.exists() or not any(out.iterdir())
    assert "grid: n must be ≥ 3" in capsys.readouterr().err


def test_invalid_operator_exits_3(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["operator"] = {"kind": "warp_drive"}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3


def test_missing_lambda_exits_3(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    del cfg["solver"]["lambda"]
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3


BASE_EIGEN = {
    "command": "eigen",
    "operator": {"kind": "pucci_minus", "a": 1.0, "A": 1.0, "alpha": 0.0},
    "coefficients": {"c": "const:-1"},
    "grid": {"R": 1.0, "N_dim": 2, "n": 51},
    "eigen": {"sign": "up"},
    "seed": 0,
}


def _with(base, path, value):
    cfg = json.loads(json.dumps(base))
    section, key = path.split(".")
    cfg[section][key] = value
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [
        _with(BASE_EIGEN, "eigen.bracket_width", 0),
        _with(BASE_EIGEN, "eigen.bracket_width", "abc"),
        _with(BASE_EIGEN, "eigen.g_scale", 0),
        _with(BASE_EIGEN, "eigen.sign", "sideways"),
        dict(BASE_EIGEN, eigen=["up"]),
        _with(BASE_SOLVE, "solver.tol", "x"),
        dict(BASE_SOLVE, solver=5),
        {
            "command": "sweep",
            "sweep": {
                "base": BASE_SOLVE,
                "parameters": [{"path": "grid.n", "values": [51, 2]}],
                "workers": 1,
            },
            "seed": 0,
        },
    ],
    ids=[
        "width-0", "width-abc", "g_scale-0", "sign", "eigen-list", "tol",
        "solver-int", "sweep-grid-n",
    ],
)
def test_malformed_config_exits_3_before_any_output(tmp_path, capsys, cfg):
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 3
    assert not out.exists()
    assert err.startswith("error: ") and "Traceback" not in err


def test_precondition_failure_exits_2_with_diagnostics(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["coefficients"]["c"] = "const:1"  # c + lambda >= 0
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error_type"] == "PreconditionError"
    assert "config" in failure


def test_eigen_command(tmp_path):
    cfg = {
        "command": "eigen",
        "operator": {"kind": "pucci_minus", "a": 1.0, "A": 1.0, "alpha": 0.0},
        "coefficients": {"c": "const:-1"},
        "grid": {"R": 1.0, "N_dim": 2, "n": 101},
        "eigen": {"sign": "both", "bracket_width": 0.01},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert payload["up"]["lambda_lo"] < 1.0 < payload["up"]["lambda_hi"]
    assert payload["down"]["lambda_lo"] < 1.0 < payload["down"]["lambda_hi"]
    up = eb.GridFunction.from_csv(out / "eigenfunction_up.csv", N_dim=2)
    dn = eb.GridFunction.from_csv(out / "eigenfunction_down.csv", N_dim=2)
    assert up.min() > 0 > dn.max()


def test_eigen_constant_coefficient_fine_grid(tmp_path):
    cfg = {
        "command": "eigen",
        "operator": {"kind": "pucci_minus", "a": 1.0, "A": 1.0, "alpha": 0.0},
        "coefficients": {"c": "const:-1"},
        "grid": {"R": 1.0, "N_dim": 2, "n": 401},
        "eigen": {"sign": "up", "bracket_width": 1e-3},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert payload["up"]["lambda_lo"] == pytest.approx(0.999, abs=1e-3)
    assert payload["up"]["lambda_hi"] == pytest.approx(1.001, abs=1e-3)


def test_certify_accept(tmp_path):
    cfg = {
        "command": "certify",
        "operator": {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.0},
        "grid": {"R": 1.0, "N_dim": 2, "n": 801},
        "certify": {"rho": 0.25, "k": 4.0, "beta1": 10.0, "beta2_fraction": 0.5},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "accept"
    assert cert["integral_c"] < 0
    assert cert["params"]["beta2"] > 0


def test_certify_reject_above_bound(tmp_path):
    cfg = {
        "command": "certify",
        "operator": {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.0},
        "grid": {"R": 1.0, "N_dim": 2, "n": 801},
        "certify": {"rho": 0.25, "k": 4.0, "beta1": 10.0, "beta2": 50.0},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "reject"
    assert cert["bound"] < 50.0


def test_check_operator_command(tmp_path):
    cfg = {
        "command": "check-operator",
        "operator": {"kind": "p_laplacian", "p": 3.0},
        "grid": {"R": 1.0, "N_dim": 3, "n": 11},
        "check": {"samples": 3000},
        "seed": 7,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    payload = json.loads((out / "operator_checks.json").read_text())
    assert payload["passed"] is True
    assert payload["homogeneity"]["failures"] == []
    assert payload["ellipticity"]["evaluated"] == 3000


def test_sweep_command(tmp_path):
    cfg = {
        "command": "sweep",
        "sweep": {
            "base": {
                "command": "solve",
                "operator": {"kind": "pucci_minus", "a": 1.0, "A": 1.0, "alpha": 0.0},
                "coefficients": {"c": "const:-1", "g": "const:-1"},
                "grid": {"R": 1.0, "N_dim": 2, "n": 51},
                "solver": {"lambda": 0.0},
            },
            "parameters": [
                {"path": "solver.lambda", "values": [-0.5, 0.0]},
                {"path": "coefficients.g", "values": ["const:-1", "const:-2"]},
            ],
            "workers": 2,
        },
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("solver.lambda,coefficients.g,status")
    assert len(lines) == 5  # header + 2x2 tuples, in tuple order
    assert lines[1].split(",")[0] == "-0.5"
    assert all(line.split(",")[2] == "ok" for line in lines[1:])


def test_sweep_rows_follow_tuple_order_single_worker(tmp_path):
    cfg = {
        "command": "sweep",
        "sweep": {
            "base": {
                "command": "solve",
                "operator": {"kind": "pucci_minus", "a": 1.0, "A": 1.0, "alpha": 0.0},
                "coefficients": {"c": "const:-1", "g": "const:-1"},
                "grid": {"R": 1.0, "N_dim": 2, "n": 51},
                "solver": {"lambda": 0.0},
            },
            "parameters": [{"path": "solver.lambda", "values": [0.3, -0.2, 0.1]}],
            "workers": 1,
        },
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.3, -0.2, 0.1]
    assert all(field != "None" for line in lines for field in line.split(","))


def test_command_mismatch_exits_3(tmp_path):
    cfg_path = write_config(tmp_path, BASE_SOLVE)
    code = main(["eigen", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert code == 3


def test_table_profile_resolution(tmp_path):
    table = tmp_path / "cprofile.csv"
    table.write_text("r,c\n0.0,-1.0\n1.0,-2.0\n")
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["coefficients"]["c"] = "table:cprofile.csv"
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True


def test_band_profile_requires_certify_section(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["coefficients"]["c"] = "band"
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3


def test_solve_general_flag(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["coefficients"]["g"] = "poly:-0.2,1.5"  # sign-changing data
    cfg["solver"]["general"] = True
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["sandwich_ok"] is True


def test_eigen_with_band_coefficient(tmp_path):
    cfg = {
        "command": "eigen",
        "operator": {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.0},
        "coefficients": {"c": "band"},
        "certify": {"rho": 0.25, "k": 4.0, "beta1": 10.0, "beta2_fraction": 0.5},
        "grid": {"R": 1.0, "N_dim": 2, "n": 51},
        "eigen": {"sign": "up", "bracket_width": 0.1},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert payload["up"]["lambda_lo"] > 0.0  # positive despite sign-changing c


def test_seed_override_recorded(tmp_path):
    cfg_path = write_config(tmp_path, BASE_SOLVE)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out-dir", str(out),
                 "--seed", "99"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99
