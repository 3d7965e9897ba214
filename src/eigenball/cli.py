"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Usage:
    eigenball <command> --config cfg.json [--out-dir DIR] [--seed N]

Commands: solve, eigen, certify, sweep, check-operator.  The config is a
single JSON document (schema in the README); every output JSON embeds the
fully resolved config so a run can be reproduced byte-for-byte.  Exit codes:
0 success, 2 non-convergence or reject verdict (outputs still written with
diagnostics), 3 invalid configuration (no outputs).
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .certify import (
    GridResolutionError,
    InfeasibleParams,
    beta2_upper_bound,
    build_params,
    build_supersolution,
    default_c_band,
    verify,
)
from .eigen import (
    BracketError,
    EigenOptions,
    EigenResidualError,
    lambda_down,
    lambda_up,
    solve_general,
)
from .grid import build_grid
from .operators import (
    CoefficientField,
    EllipticOperator,
    check_ellipticity,
    check_homogeneity,
    constant_profile,
    poly_profile,
    table_profile,
)
from .solver import PreconditionError, SolveOptions, solve_neumann

__all__ = ["ConfigError", "main", "run"]

COMMANDS = ("solve", "eigen", "certify", "sweep", "check-operator")

_COMPUTE_ERRORS = (
    PreconditionError,
    BracketError,
    EigenResidualError,
    InfeasibleParams,
    GridResolutionError,
)


class ConfigError(ValueError):
    pass


# ------------------------------ formatting ----------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _jsonable(obj):
    """Recursively convert to JSON-safe values (non-finite floats -> strings)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ----------------------------- config parsing -------------------------------


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return d[key]


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: section must be an object")
    return section


def _integer(value, where: str) -> int:
    """A config integer: an int, an integral float (401.0) or an integer
    string; a fraction is an error, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A config float: anything ``float()`` takes (1e-9, "1e-9") except a
    bool or a non-finite value (NaN, Infinity, "inf")."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def _checked(where: str, build, *args, **kw):
    """``build(*args, **kw)``, its ValueError reported as a config error;
    ``InfeasibleParams`` is a verdict and passes through."""
    try:
        return build(*args, **kw)
    except InfeasibleParams:
        raise
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _parse_profile(spec, base_dir: Path, where: str):
    """A radial profile other than ``band``, which needs the certify params."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return constant_profile(_number(spec, where))
    if not isinstance(spec, str):
        raise ConfigError(f"{where}: cannot interpret {spec!r} as a profile")
    if spec.startswith("const:"):
        return constant_profile(_number(spec[6:], f"{where}: const value"))
    if spec.startswith("poly:"):
        return poly_profile(
            [_number(t, f"{where}: poly coefficient") for t in spec[5:].split(",")]
        )
    if spec.startswith("table:"):
        path = base_dir / spec[6:]
        if not path.is_file():
            raise ConfigError(f"{where}: table file {path} not found")
        try:
            data = np.genfromtxt(path, delimiter=",", skip_header=1)
            if data.ndim != 2 or data.shape[1] != 2:
                raise ValueError("must have two columns")
            if not np.isfinite(data).all():
                raise ValueError("has a cell that is not a finite number")
            return table_profile(data[:, 0], data[:, 1])
        except ValueError as e:
            raise ConfigError(f"{where}: table file {path}: {e}") from None
    raise ConfigError(f"{where}: unknown profile spec {spec!r}")


def _parse_operator(d: dict, base_dir: Path) -> EllipticOperator:
    if not isinstance(d, dict):
        raise ConfigError("operator: must be an object")
    kind = _require(d, "kind", "operator")

    def number(key, default=None):
        value = _require(d, key, "operator") if default is None else d.get(key, default)
        return _number(value, f"operator: {key}")

    if kind in ("pucci_minus", "pucci_plus"):
        args, kw = (number("a"), number("A"), number("alpha", 0.0)), {}
    elif kind == "p_laplacian":
        args, kw = (number("p"),), {}
    elif kind == "anisotropic":
        args = (number("a"), number("A"), number("q"), number("c0", 0.0))
        kw = {
            f"{key}_profile": _parse_profile(d[key], base_dir, f"operator.{key}")
            for key in ("b1", "b2")
            if d.get(key) is not None
        }
    else:
        raise ConfigError(f"operator: unknown kind {kind!r}")
    return _checked("operator", getattr(EllipticOperator, kind), *args, **kw)


def _parse_grid(d: dict):
    if not isinstance(d, dict):
        raise ConfigError("grid: must be an object")
    try:
        return build_grid(
            _number(_require(d, "R", "grid"), "grid: R"),
            _integer(_require(d, "N_dim", "grid"), "grid: N_dim"),
            _integer(_require(d, "n", "grid"), "grid: n"),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _parse_certify_params(c, grid, op):
    """``build_params`` of the certify section.  A field that is missing or
    not a finite number, a geometry without a beta2 bound, a beta2 <= 0 and
    forced shell widths outside 0 < eps < eps_prime < R - rho are config
    errors; a beta2 at or above the bound raises ``InfeasibleParams``."""
    if not isinstance(c, dict):
        raise ConfigError("certify: section missing or not an object")
    for key in ("rho", "k", "beta1"):
        _require(c, key, "certify")
    if "beta2" not in c and "beta2_fraction" not in c:
        raise ConfigError("certify: need beta2 or beta2_fraction")
    keys = ("rho", "k", "beta1", "beta2", "beta2_fraction", "eps", "eps_prime")
    x = {key: _number(c[key], f"certify: {key}") for key in keys if key in c}
    geometry = (grid.N_dim, op.a, op.A, op.alpha, grid.R, x["rho"], x["k"], x["beta1"])
    limit = _checked("certify", beta2_upper_bound, *geometry)
    beta2 = x["beta2"] if "beta2" in x else x["beta2_fraction"] * limit
    kw = {key: x[key] for key in ("eps", "eps_prime") if key in x}
    return _checked("certify", build_params, *geometry, beta2, **kw)


def _parse_options(cfg: dict):
    """The command's own options: (SolveOptions, lambda, general) for solve,
    (EigenOptions, sign) for eigen, the sample count for check-operator."""
    command = cfg["command"]
    if command in ("solve", "eigen"):
        s = _section(cfg, "solver")
        tol = _number(s.get("tol", 1e-9), "solver: tol")
    if command == "solve":
        if "lambda" not in s:
            raise ConfigError("solver: solve command needs solver.lambda")
        general = s.get("general", False)
        if not isinstance(general, bool):
            raise ConfigError("solver: general must be true or false")
        opts = _checked(
            "solver",
            SolveOptions,
            tol=tol,
            max_iter=_integer(s.get("max_iter", 20000), "solver: max_iter"),
            U_max=_number(s.get("U_max", 1e6), "solver: U_max"),
        )
        return opts, _number(s["lambda"], "solver: lambda"), general
    if command == "eigen":
        e = _section(cfg, "eigen")

        def optional(key):
            return _number(e[key], f"eigen: {key}") if key in e else None

        sign = e.get("sign", "up")
        if sign not in ("up", "down", "both"):
            raise ConfigError(f"eigen: sign must be up/down/both, got {sign!r}")
        opts = _checked(
            "solver/eigen",
            EigenOptions,
            bracket_width=optional("bracket_width"),
            eig_residual_tol=optional("eig_residual_tol"),
            tol=tol,
        )
        return opts, sign
    if command == "check-operator":
        samples = _integer(_section(cfg, "check").get("samples", 10000), "check: samples")
        if samples < 1:
            raise ConfigError(f"check: samples must be >= 1, got {samples}")
        return samples
    return None


def _parse_leaf(cfg: dict, base_dir: Path):
    """Every input of a non-sweep run: (grid, operator, certify params,
    CoefficientField, options).  Validation and execution both parse here.

    A malformed field raises ``ConfigError``.  Infeasible certify
    magnitudes are the run's verdict: ``InfeasibleParams`` is raised after
    every config check, and only when the run reads the params (the
    certify command or a ``band`` profile)."""
    command = cfg["command"]
    grid = _parse_grid(_require(cfg, "grid", "config"))
    op = _parse_operator(_require(cfg, "operator", "config"), base_dir)
    _checked("operator", op.validate_profiles, grid.nodes)
    options = _parse_options(cfg)
    coeffs = _section(cfg, "coefficients")
    specs = {key: coeffs.get(key, 0.0) for key in ("b", "c", "g")}
    if command == "certify":
        specs["c"] = coeffs.get("c", "band")
    band = [key for key, spec in specs.items() if spec == "band"]
    certify_given = "certify" in cfg or command == "certify"
    if band and not certify_given:
        raise ConfigError(
            f"coefficients.{band[0]}: 'band' profile needs a certify section to build from"
        )
    profiles = {
        key: _parse_profile(spec, base_dir, f"coefficients.{key}")
        for key, spec in specs.items()
        if key not in band
    }
    params = None
    if certify_given:
        try:
            params = _parse_certify_params(cfg.get("certify"), grid, op)
        except InfeasibleParams:
            if band or command == "certify":
                raise
    profiles.update({key: default_c_band(params) for key in band})
    return grid, op, params, CoefficientField(**profiles), options


def resolve_config(raw: dict, *, seed_override=None, base_dir: Path):
    """The resolved config and its parsed leaf: None for a sweep, else the
    parse or the ``InfeasibleParams`` that is the run's verdict."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    cfg = copy.deepcopy(raw)
    command = _require(cfg, "command", "config")
    if command not in COMMANDS:
        raise ConfigError(f"config: unknown command {command!r}")
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    cfg["seed"] = _integer(seed, "config: seed")
    if cfg["seed"] < 0:
        raise ConfigError(f"config: seed must be >= 0, got {cfg['seed']}")
    leaves = [cfg]
    if command == "sweep":
        sw = _require(cfg, "sweep", "config")
        if not isinstance(sw, dict):
            raise ConfigError("sweep: section must be an object")
        base = _require(sw, "base", "sweep")
        if not isinstance(base, dict):
            raise ConfigError("sweep: base must be an object")
        if base.get("command") not in COMMANDS or base.get("command") == "sweep":
            raise ConfigError("sweep: base.command must be a non-sweep command")
        params = _require(sw, "parameters", "sweep")
        if not isinstance(params, list) or not params:
            raise ConfigError("sweep: parameters must be a non-empty list")
        for p in params:
            if not isinstance(p, dict):
                raise ConfigError("sweep: each parameter must be an object")
            if not isinstance(_require(p, "path", "sweep.parameters"), str):
                raise ConfigError("sweep: each parameter path must be a string")
            values = _require(p, "values", "sweep.parameters")
            if not isinstance(values, list) or not values:
                raise ConfigError("sweep: each parameter needs a non-empty values list")
        _integer(sw.get("workers", 0), "sweep: workers")
        leaves = [_sweep_leaf(cfg, overrides) for overrides in _sweep_tuples(cfg)]
    for leaf in leaves:
        try:
            parsed = _parse_leaf(leaf, base_dir)
        except InfeasibleParams as e:
            parsed = e
    return cfg, None if command == "sweep" else parsed


def _set_path(d: dict, path: str, value) -> None:
    keys = path.split(".")
    for k in keys[:-1]:
        d = d.setdefault(k, {})
        if not isinstance(d, dict):
            raise ConfigError(f"sweep: path {path!r} runs through a non-object at {k!r}")
    d[keys[-1]] = value


# ------------------------------- execution ----------------------------------


def _execute(cfg: dict, leaf, out_dir) -> tuple[int, dict]:
    """Run one parsed non-sweep leaf; write artifacts if out_dir is given."""
    command = cfg["command"]
    grid, op, params, coeff, options = leaf
    public_cfg = {k: v for k, v in cfg.items() if not k.startswith("_")}

    if command == "solve":
        opts, lam, general = options
        solve = solve_general if general else solve_neumann
        report = solve(op, coeff, lam, None, grid, opts)
        summary = report.summary()
        summary["barrier_bound"] = report.barrier_bound
        summary["sandwich_ok"] = report.sandwich_ok
        if out_dir is not None:
            report.solution.to_csv(out_dir / "solution.csv")
            _write_json(
                out_dir / "report.json",
                {
                    "config": public_cfg,
                    **summary,
                    "barrier_ok": report.barrier_ok,
                },
            )
        return (0 if report.converged else 2), summary

    if command == "eigen":
        opts, sign = options
        payload = {"config": public_cfg}
        summary = {}
        for side, estimate in (("up", lambda_up), ("down", lambda_down)):
            if sign not in (side, "both"):
                continue
            est = estimate(op, coeff, grid, opts)
            payload[side] = est.summary()
            summary.update({f"{side}_{k}": v for k, v in payload[side].items()})
            if out_dir is not None:
                est.eigenfunction.to_csv(out_dir / f"eigenfunction_{side}.csv")
        if out_dir is not None:
            _write_json(out_dir / "eigen.json", payload)
        return 0, summary

    if command == "certify":
        v = build_supersolution(params)
        cert = verify(params, v, coeff.c, grid)
        if out_dir is not None:
            _write_json(
                out_dir / "certificate.json",
                {"config": public_cfg, **cert.to_dict()},
            )
        return (0 if cert.accepted else 2), cert.summary()

    if command == "check-operator":
        samples, seed = options, cfg["seed"]
        hom = check_homogeneity(op, samples, N_dim=grid.N_dim, seed=seed)
        ell = check_ellipticity(op, samples, N_dim=grid.N_dim, seed=seed + 1)
        ok = hom.passed and ell.passed
        if out_dir is not None:
            _write_json(
                out_dir / "operator_checks.json",
                {
                    "config": public_cfg,
                    "homogeneity": hom.to_dict(),
                    "ellipticity": ell.to_dict(),
                    "passed": ok,
                },
            )
        return (0 if ok else 2), {
            "homogeneity_passed": hom.passed,
            "ellipticity_passed": ell.passed,
            "homogeneity_failures": len(hom.failures),
            "ellipticity_failures": len(ell.failures),
        }


def _sweep_leaf(cfg: dict, overrides) -> dict:
    """The config of one sweep point: the base with its overrides applied."""
    leaf = copy.deepcopy(cfg["sweep"]["base"])
    for path, value in overrides:
        _set_path(leaf, path, value)
    leaf["seed"] = cfg["seed"]
    return leaf


def _sweep_worker(args):
    cfg, base_dir, overrides = args
    leaf = _sweep_leaf(cfg, overrides)
    try:
        # parsed here: parsed profiles are closures, which do not cross the process pool
        code, summary = _execute(leaf, _parse_leaf(leaf, base_dir), None)
        status = "ok" if code == 0 else "reject"
    except _COMPUTE_ERRORS as e:
        status, summary = "error", {"error": str(e)}
    return status, summary


def _sweep_tuples(cfg: dict) -> list:
    """The (path, value) overrides of every sweep point, in row order."""
    params = cfg["sweep"]["parameters"]
    combos = itertools.product(*(p["values"] for p in params))
    return [[(p["path"], v) for p, v in zip(params, combo)] for combo in combos]


def _run_sweep(cfg: dict, out_dir: Path, base_dir: Path) -> int:
    sw = cfg["sweep"]
    paths = [p["path"] for p in sw["parameters"]]
    tuples = _sweep_tuples(cfg)
    workers = _integer(sw.get("workers", 0), "sweep: workers") or (os.cpu_count() or 1)
    workers = max(1, min(workers, len(tuples)))

    if workers == 1:
        results = [_sweep_worker((cfg, base_dir, t)) for t in tuples]
    else:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, [(cfg, base_dir, t) for t in tuples]))

    keys = sorted({k for _, summary in results for k in summary})
    header = paths + ["status"] + keys
    rows = []
    for t, (status, summary) in zip(tuples, results):
        row = [v for _, v in t] + [status] + [summary.get(k, "") for k in keys]
        rows.append(row)
    _write_rows(out_dir / "sweep.csv", header, rows)
    return 0 if all(status == "ok" for status, _ in results) else 2


def run(config: dict, out_dir, seed=None, config_dir=None) -> int:
    """Programmatic entry point; returns the process exit code."""
    base_dir = Path(config_dir) if config_dir is not None else Path(".")
    try:
        cfg, leaf = resolve_config(config, seed_override=seed, base_dir=base_dir)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg["command"] == "sweep":
            return _run_sweep(cfg, out, base_dir)
        if isinstance(leaf, InfeasibleParams):
            raise leaf
        code, _ = _execute(cfg, leaf, out)
        return code
    except _COMPUTE_ERRORS as e:
        public_cfg = {k: v for k, v in cfg.items() if not k.startswith("_")}
        diagnostic = {
            "config": public_cfg,
            "error": str(e),
            "error_type": type(e).__name__,
        }
        if isinstance(e, InfeasibleParams):
            diagnostic["verdict"] = "reject"
            diagnostic["bound"] = e.bound
            _write_json(out / "certificate.json", diagnostic)
        else:
            _write_json(out / "failure.json", diagnostic)
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigenball",
        description=(
            "Radial Neumann solver, principal-eigenvalue bracketing, and "
            "sign-changing-coefficient supersolution certification on balls."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 3
    if isinstance(raw, dict):
        declared = raw.get("command")
        if declared is not None and declared != args.command:
            print(
                f"error: config declares command {declared!r} but "
                f"{args.command!r} was requested",
                file=sys.stderr,
            )
            return 3
        raw["command"] = args.command
    return run(
        raw,
        args.out_dir,
        seed=args.seed,
        config_dir=Path(args.config).resolve().parent,
    )


if __name__ == "__main__":
    sys.exit(main())
