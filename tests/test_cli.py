import json
import math
import warnings

import numpy as np
import pytest

import eigenball as eb
from eigenball.cli import COMMANDS, main


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


def test_solve_report_names_the_residual_floor(tmp_path):
    # alpha = -0.5 stops at its floor: not converged, exit 2, in a few steps
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["operator"] = {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": -0.5}
    cfg["coefficients"] = {"c": "poly:-1,0,-1", "g": "poly:-1.5,0,0.5"}
    cfg["grid"]["n"] = 401
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] <= 50
    assert report["residual_sup"] <= 1e-6 <= report["residual_floor"]


def test_json_writer_converts_numpy_scalars_and_non_finite_floats(tmp_path):
    # numpy scalars become plain JSON numbers and booleans; nan and the
    # infinities, which JSON cannot hold, become strings
    from eigenball.cli import _write_json

    path = tmp_path / "payload.json"
    _write_json(path, {
        "bool": np.bool_(True), "float": np.float64(0.25), "int": np.int64(7),
        "nan": float("nan"), "rows": [np.float64(np.inf), -math.inf],
    })
    assert path.read_text() == (
        '{\n  "bool": true,\n  "float": 0.25,\n  "int": 7,\n  "nan": "nan",\n'
        '  "rows": [\n    "inf",\n    "-inf"\n  ]\n}\n'
    )


def test_solve_with_singular_factor_exits_2(tmp_path, singular_factor):
    code, out = run_cli(tmp_path, BASE_SOLVE)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 0


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


BASE_CHECK = {
    "command": "check-operator",
    "operator": {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.5},
    "grid": {"R": 1.0, "N_dim": 2, "n": 51},
    "check": {"samples": 100},
    "seed": 0,
}


BASE_CERTIFY = {
    "command": "certify",
    "operator": {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.0},
    "grid": {"R": 1.0, "N_dim": 2, "n": 101},
    "certify": {"rho": 0.25, "k": 4.0, "beta1": 10.0, "beta2_fraction": 0.5},
    "seed": 0,
}


def _with(base, path, value):
    cfg = json.loads(json.dumps(base))
    section, key = path.split(".")
    cfg[section][key] = value
    return cfg


def _sweep(base=BASE_SOLVE, parameter=None, workers=1):
    return {
        "command": "sweep",
        "sweep": {
            "base": base,
            "parameters": [parameter or {"path": "grid.n", "values": [51]}],
            "workers": workers,
        },
        "seed": 0,
    }


MALFORMED_TABLES = {
    "radii-unsorted.csv": "r,c\n0.0,-1.0\n1.0,-1.0\n0.5,-1.0\n",
    "cell-abc.csv": "r,c\n0.0,-1.0\n1.0,abc\n",
    "three-columns.csv": "r,c,x\n0.0,-1.0,0.0\n1.0,-1.0,0.0\n",
}


@pytest.mark.parametrize(
    "cfg",
    [
        _with(BASE_EIGEN, "eigen.bracket_width", 0),
        _with(BASE_EIGEN, "eigen.bracket_width", "abc"),
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
        {
            "command": "sweep",
            "sweep": {
                "base": BASE_SOLVE,
                "parameters": [{"path": "grid.n", "values": [51]}],
                "workers": "abc",
            },
            "seed": 0,
        },
        _with(BASE_CHECK, "check.samples", "x"),
        dict(BASE_SOLVE, coefficients=["const:-1"]),
        # a JSON string, though truthy, is not a boolean
        _with(BASE_SOLVE, "solver.general", "false"),
        dict(BASE_SOLVE, seed="x"),
        dict(BASE_CHECK, seed=-1),
        _with(BASE_CERTIFY, "certify.rho", -0.25),
        _with(BASE_CERTIFY, "certify.rho", float("nan")),
        _with(BASE_CERTIFY, "certify.eps", 0.05),
        # a non-positive beta2 exhausted the shell-width search (exit 2)
        dict(BASE_CERTIFY, certify={"rho": 0.25, "k": 4.0, "beta1": 10.0, "beta2": 0}),
        _with(BASE_CERTIFY, "certify.beta2_fraction", -0.5),
        dict(
            BASE_SOLVE,
            operator={
                "kind": "anisotropic", "a": 1.0, "A": 2.0, "q": 2.0, "b1": "const:5",
            },
        ),
        dict(_sweep(), sweep=5),
        _sweep(workers=1.5),
        _sweep(base=5),
        _sweep(parameter=5),
        _sweep(parameter={"path": 3, "values": [51]}),
        _sweep(parameter={"path": "grid.n.x", "values": [51]}),
        # the run would use 100 nodes and 2 dimensions while the artifacts
        # recorded 100.7 and 2.9
        _with(BASE_SOLVE, "grid.n", 100.7),
        _with(BASE_SOLVE, "grid.N_dim", 2.9),
        _with(BASE_SOLVE, "solver.max_iter", 2.5),
        _with(BASE_CHECK, "check.samples", 2.5),
        dict(BASE_SOLVE, seed=1.5),
        _with(BASE_SOLVE, "solver.lambda", float("nan")),
        _with(BASE_SOLVE, "solver.tol", float("nan")),
        # a negative tol made the solve's barrier bound complex (a traceback
        # and a partial report.json), a non-positive eigen one exit 2
        dict(
            BASE_SOLVE,
            operator={"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.5},
            coefficients={"c": "poly:-1,0,-1", "g": "const:-1"},
            solver={"lambda": 0.0, "tol": -1},
        ),
        dict(BASE_EIGEN, solver={"tol": 0}),
        _with(BASE_EIGEN, "eigen.eig_residual_tol", 0),
        _with(BASE_EIGEN, "eigen.eig_residual_tol", -1),
        _with(BASE_SOLVE, "coefficients.c", "table:radii-unsorted.csv"),
        _with(BASE_SOLVE, "coefficients.c", "table:cell-abc.csv"),
        # a non-positive step or iterate bound wrote a report that was not
        # converged (exit 2), or for alpha = 0 ignored U_max (exit 0)
        _with(BASE_SOLVE, "solver.max_iter", 0),
        _with(BASE_SOLVE, "solver.max_iter", -1),
        _with(BASE_SOLVE, "solver.U_max", 0),
        _with(BASE_SOLVE, "solver.U_max", -1),
        dict(BASE_SOLVE, grid={"R": 1.0, "N_dim": 2}),
        _with(BASE_SOLVE, "coefficients.c", [-1.0, -1.0]),
        _with(BASE_SOLVE, "coefficients.c", "table:missing.csv"),
        _with(BASE_SOLVE, "coefficients.c", "table:three-columns.csv"),
        _with(BASE_SOLVE, "coefficients.c", "foo:1"),
        dict(BASE_SOLVE, operator=["pucci_minus", 1.0, 1.0]),
        dict(BASE_SOLVE, grid=[1.0, 2, 101]),
        dict(BASE_CERTIFY, certify=[0.25, 4.0, 10.0, 0.5]),
        dict(BASE_CERTIFY, certify={"rho": 0.25, "k": 4.0, "beta1": 10.0}),
        _with(BASE_CHECK, "check.samples", 0),
        [BASE_SOLVE],
        dict(BASE_SOLVE, command="solve-all"),
        _sweep(base=_sweep()),
        {**_sweep(), "sweep": {"base": BASE_SOLVE, "parameters": [], "workers": 1}},
        _sweep(parameter={"path": "grid.n", "values": []}),
    ],
    ids=[
        "width-0", "width-abc", "sign", "eigen-list", "tol",
        "solver-int", "sweep-grid-n", "sweep-workers", "check-samples",
        "coefficients-list", "general-string", "seed-string", "seed-negative",
        "certify-rho-negative", "certify-rho-nan", "certify-eps-alone",
        "certify-beta2-zero", "certify-beta2-fraction-negative",
        "anisotropic-b1-outside", "sweep-scalar", "sweep-workers-fraction",
        "sweep-base-scalar", "sweep-parameter-scalar", "sweep-path-number",
        "sweep-path-through-scalar", "grid-n-fraction", "N_dim-fraction",
        "max_iter-fraction", "samples-fraction", "seed-fraction",
        "lambda-nan", "tol-nan", "tol-negative", "eigen-tol-0",
        "eig_residual_tol-0", "eig_residual_tol-negative",
        "table-radii-unsorted", "table-cell-abc",
        "max_iter-0", "max_iter-negative", "U_max-0", "U_max-negative",
        "grid-n-missing", "profile-list", "table-missing", "table-three-columns",
        "spec-unknown", "operator-list", "grid-list", "certify-list",
        "certify-beta2-missing", "samples-0", "top-level-list", "command-unknown",
        "sweep-base-sweep", "sweep-parameters-empty", "sweep-values-empty",
    ],
)
def test_malformed_config_exits_3_before_any_output(tmp_path, capsys, cfg):
    for name, text in MALFORMED_TABLES.items():
        (tmp_path / name).write_text(text)
    # a config that names no command the CLI knows runs as "solve"
    command = cfg.get("command") if isinstance(cfg, dict) else None
    code, out = run_cli(tmp_path, cfg, command if command in COMMANDS else "solve")
    err = capsys.readouterr().err
    assert code == 3
    assert not out.exists()
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [None, "{\"command\": \"solve\","], ids=["missing", "json"])
def test_unreadable_config_exits_3_before_any_output(tmp_path, capsys, text):
    cfg_path = tmp_path / "config.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert not out.exists()
    assert err.startswith("error: cannot read config: ") and "Traceback" not in err


@pytest.mark.parametrize("eps, eps_prime", [(0.3, 0.2), (-0.1, 0.2)])
def test_malformed_forced_shell_widths_exit_3(tmp_path, capsys, eps, eps_prime):
    # the widths are a config error, not a "reject" certificate (exit 2)
    cfg = _with(_with(BASE_CERTIFY, "certify.eps", eps), "certify.eps_prime", eps_prime)
    code, out = run_cli(tmp_path, cfg)
    assert code == 3
    assert not out.exists()
    assert "0 < eps < eps_prime < R - rho" in capsys.readouterr().err


def test_integral_floats_are_accepted_as_integers(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["grid"].update(n=101.0, N_dim=2.0)
    cfg["seed"] = 3.0
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 3
    assert len((out / "solution.csv").read_text().splitlines()) == 1 + 101


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


def test_operator_table_is_relative_to_the_config_file(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "b1.csv").write_text("r,b1\n0.0,1.2\n1.0,1.8\n")
    cfg = dict(
        BASE_SOLVE,
        operator={"kind": "anisotropic", "a": 1.0, "A": 2.0, "q": 2.0, "b1": "table:b1.csv"},
    )
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(cfg_dir, cfg)
    assert code == 0
    assert json.loads((out / "report.json").read_text())["converged"] is True


def test_band_profile_requires_certify_section(tmp_path):
    cfg = json.loads(json.dumps(BASE_SOLVE))
    cfg["coefficients"]["c"] = "band"
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3


# the band profile is positive near r = 0, so c + lambda < 0 fails there
SOLVE_BAND = dict(
    BASE_SOLVE,
    coefficients={"c": "band", "g": "const:-1"},
    certify=BASE_CERTIFY["certify"],
)


def test_solve_with_band_profile_exits_2_with_diagnostics(tmp_path):
    code, out = run_cli(tmp_path, SOLVE_BAND)
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error_type"] == "PreconditionError"


@pytest.mark.parametrize(
    "base, parameter, statuses",
    [
        (
            _with(BASE_CERTIFY, "grid.n", 2001),
            {"path": "certify.beta2_fraction", "values": [0.5, 1.5]},
            ["ok", "error"],
        ),
        (SOLVE_BAND, {"path": "grid.n", "values": [101]}, ["error"]),
    ],
    ids=["certify-infeasible", "solve-band"],
)
def test_sweep_row_of_a_failed_run_reads_error(tmp_path, base, parameter, statuses):
    code, out = run_cli(tmp_path, _sweep(base=base, parameter=parameter))
    assert code == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    status = lines[0].split(",").index("status")
    assert [line.split(",")[status] for line in lines[1:]] == statuses


@pytest.mark.parametrize(
    "coefficients, code, artifact",
    [
        ({"c": "const:-1"}, 0, "eigen.json"),
        ({"c": "band"}, 2, "certificate.json"),
    ],
    ids=["section-unread", "band"],
)
def test_infeasible_certify_section_is_a_verdict_only_where_read(
    tmp_path, coefficients, code, artifact
):
    cfg = dict(
        BASE_EIGEN,
        coefficients=coefficients,
        certify=dict(BASE_CERTIFY["certify"], beta2_fraction=1.5),
    )
    got, out = run_cli(tmp_path, cfg)
    assert got == code
    assert (out / artifact).exists()


def test_eigen_inner_solve_failure_exits_2_with_diagnostics(tmp_path, monkeypatch):
    # a Collatz-Wielandt round whose Newton solve neither converges nor
    # stops at its floor (here cut to one step) ends the estimate: no
    # monotone probe stands in for it
    from dataclasses import replace

    from eigenball.solver import _Driver

    solve = _Driver.solve

    def one_step(self, g, v, opts, *args):
        return solve(self, g, v, replace(opts, max_iter=1), *args)

    monkeypatch.setattr(_Driver, "solve", one_step)
    cfg = dict(
        BASE_EIGEN,
        operator={"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.5},
        coefficients={"c": "poly:-1,0,-1"},
        grid={"R": 1.0, "N_dim": 2, "n": 101},
        eigen={"bracket_width": 0.05},
    )
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error_type"] == "BracketError"
    assert "Collatz-Wielandt round" in failure["error"]


def test_eigen_accepts_and_ignores_probe_options(tmp_path):
    # eigen.max_outer and eigen.g_scale bounded the monotone probes, which no
    # estimate runs: one outer step made this p = 3 estimate ambiguous, and
    # now the bracket reads off the Collatz-Wielandt bracket.  Like any
    # unknown key they are ignored, without a warning
    cfg = dict(
        BASE_EIGEN,
        operator={"kind": "p_laplacian", "p": 3.0},
        coefficients={"c": "const:-1"},
        grid={"R": 1.0, "N_dim": 2, "n": 51},
        eigen={"max_outer": 1, "g_scale": 10.0, "bracket_width": 0.1},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, cfg)
    assert code == 0
    up = json.loads((out / "eigen.json").read_text())["up"]
    assert up["cw_lo"] <= 1.0 <= up["cw_hi"]
    assert up["lambda_lo"] < 1.0 < up["lambda_hi"]


def test_eigen_with_strong_drift_on_a_large_ball(tmp_path):
    # Pucci+ (1, 1) with b = 30 r on R = 10: the Collatz-Wielandt bracket
    # stays 2.4e2 wide for 141 rounds, while phi's tail falls 100x per
    # round to 4e-279, then collapses to 2e-10 in 5 more (an
    # EigenResidualError, exit 2, when the rounds stopped at 50)
    cfg = dict(
        BASE_EIGEN,
        operator={"kind": "pucci_plus", "a": 1.0, "A": 1.0, "alpha": 0.0},
        coefficients={"b": "poly:0,30", "c": "poly:0.5,0,-3"},
        grid={"R": 10.0, "N_dim": 2, "n": 401},
    )
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    up = json.loads((out / "eigen.json").read_text())["up"]
    assert up["lambda_lo"] <= 59.8388331 <= up["lambda_hi"]
    assert up["cw_hi"] - up["cw_lo"] <= 1e-9
    assert up["lambda_mid"] == pytest.approx(59.8388331, abs=1e-7)


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


def test_run_parses_its_leaf_once(tmp_path, monkeypatch):
    # the leaf that validation parsed is the one the run executes, so the
    # band profile is built once
    from eigenball import cli

    calls = {"_parse_leaf": 0, "default_c_band": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    cfg = {
        "command": "eigen",
        "operator": {"kind": "pucci_minus", "a": 1.0, "A": 2.0, "alpha": 0.0},
        "coefficients": {"c": "band"},
        "certify": {"rho": 0.25, "k": 4.0, "beta1": 10.0, "beta2_fraction": 0.5},
        "grid": {"R": 1.0, "N_dim": 2, "n": 51},
        "eigen": {"sign": "up", "bracket_width": 0.1},
    }
    assert cli.run(cfg, tmp_path / "out") == 0
    assert calls == {"_parse_leaf": 1, "default_c_band": 1}


def test_seed_override_recorded(tmp_path):
    cfg_path = write_config(tmp_path, BASE_SOLVE)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out-dir", str(out),
                 "--seed", "99"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99
