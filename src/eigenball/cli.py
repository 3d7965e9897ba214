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
from .solver import (
    InnerSolveError,
    PreconditionError,
    SolveOptions,
    solve_neumann,
)

__all__ = ["ConfigError", "main", "run"]

COMMANDS = ("solve", "eigen", "certify", "sweep", "check-operator")

_COMPUTE_ERRORS = (
    PreconditionError,
    InnerSolveError,
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


def _parse_profile(spec, base_dir: Path, band_params=None, where: str = "profile"):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return constant_profile(float(spec))
    if not isinstance(spec, str):
        raise ConfigError(f"{where}: cannot interpret {spec!r} as a profile")
    if spec.startswith("const:"):
        try:
            return constant_profile(float(spec[6:]))
        except ValueError:
            raise ConfigError(f"{where}: bad constant profile {spec!r}") from None
    if spec.startswith("poly:"):
        try:
            coeffs = [float(t) for t in spec[5:].split(",")]
        except ValueError:
            raise ConfigError(f"{where}: bad poly profile {spec!r}") from None
        return poly_profile(coeffs)
    if spec.startswith("table:"):
        path = base_dir / spec[6:]
        if not path.exists():
            raise ConfigError(f"{where}: table file {path} not found")
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError(f"{where}: table file {path} must have two columns")
        return table_profile(data[:, 0], data[:, 1])
    if spec == "band":
        if band_params is None:
            raise ConfigError(
                f"{where}: 'band' profile needs a certify section to build from"
            )
        return default_c_band(band_params)
    raise ConfigError(f"{where}: unknown profile spec {spec!r}")


def _parse_operator(d: dict) -> EllipticOperator:
    if not isinstance(d, dict):
        raise ConfigError("operator: must be an object")
    kind = _require(d, "kind", "operator")
    try:
        if kind in ("pucci_minus", "pucci_plus"):
            a = float(_require(d, "a", "operator"))
            A = float(_require(d, "A", "operator"))
            alpha = float(d.get("alpha", 0.0))
            ctor = (
                EllipticOperator.pucci_minus
                if kind == "pucci_minus"
                else EllipticOperator.pucci_plus
            )
            return ctor(a, A, alpha)
        if kind == "p_laplacian":
            return EllipticOperator.p_laplacian(float(_require(d, "p", "operator")))
        if kind == "anisotropic":
            b1 = d.get("b1")
            b2 = d.get("b2")
            return EllipticOperator.anisotropic(
                float(_require(d, "a", "operator")),
                float(_require(d, "A", "operator")),
                float(_require(d, "q", "operator")),
                float(d.get("c0", 0.0)),
                b1_profile=None if b1 is None else _parse_profile(b1, Path("."), where="operator.b1"),
                b2_profile=None if b2 is None else _parse_profile(b2, Path("."), where="operator.b2"),
            )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"operator: {e}") from None
    raise ConfigError(f"operator: unknown kind {kind!r}")


def _parse_grid(d: dict):
    if not isinstance(d, dict):
        raise ConfigError("grid: must be an object")
    try:
        return build_grid(
            float(_require(d, "R", "grid")),
            int(_require(d, "N_dim", "grid")),
            int(_require(d, "n", "grid")),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _parse_certify_params(cfg: dict, grid, op):
    c = cfg.get("certify")
    if not isinstance(c, dict):
        raise ConfigError("certify: section missing or not an object")
    rho = float(_require(c, "rho", "certify"))
    k = float(_require(c, "k", "certify"))
    beta1 = float(_require(c, "beta1", "certify"))
    if "beta2" in c:
        beta2 = float(c["beta2"])
    elif "beta2_fraction" in c:
        from .certify import beta2_upper_bound

        beta2 = float(c["beta2_fraction"]) * beta2_upper_bound(
            grid.N_dim, op.a, op.A, op.alpha, grid.R, rho, k, beta1
        )
    else:
        raise ConfigError("certify: need beta2 or beta2_fraction")
    kw = {}
    if "eps" in c or "eps_prime" in c:
        kw["eps"] = float(_require(c, "eps", "certify"))
        kw["eps_prime"] = float(_require(c, "eps_prime", "certify"))
    return build_params(
        grid.N_dim, op.a, op.A, op.alpha, grid.R, rho, k, beta1, beta2, **kw
    )


def _solver_options(cfg: dict) -> SolveOptions:
    s = cfg.get("solver", {})
    return SolveOptions(
        tol=float(s.get("tol", 1e-9)),
        max_iter=int(s.get("max_iter", 20000)),
        U_max=float(s.get("U_max", 1e6)),
    )


def _eigen_options(cfg: dict) -> EigenOptions:
    s = cfg.get("solver", {})
    e = cfg.get("eigen", {})
    opts = EigenOptions(
        bracket_width=(
            float(e["bracket_width"]) if "bracket_width" in e else None
        ),
        g_scale=float(e.get("g_scale", 1.0)),
        eig_residual_tol=(
            float(e["eig_residual_tol"]) if "eig_residual_tol" in e else None
        ),
        tol=float(s.get("tol", 1e-9)),
        max_outer=int(e.get("max_outer", 400_000)),
        inner_max_iter=int(s.get("max_iter", 20000)),
        U_max=float(s.get("U_max", 1e6)),
    )
    opts.resolved_width(0.0)  # rejects a bracket_width <= 0
    if not opts.g_scale > 0:
        raise ValueError(f"g_scale must be > 0, got {opts.g_scale!r}")
    return opts


def resolve_config(raw: dict, *, seed_override=None, base_dir: Path) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    cfg = copy.deepcopy(raw)
    command = _require(cfg, "command", "config")
    if command not in COMMANDS:
        raise ConfigError(f"config: unknown command {command!r}")
    cfg["seed"] = int(seed_override if seed_override is not None else cfg.get("seed", 0))
    cfg["_base_dir"] = str(base_dir)
    if command == "sweep":
        sw = _require(cfg, "sweep", "config")
        base = _require(sw, "base", "sweep")
        if base.get("command") not in COMMANDS or base.get("command") == "sweep":
            raise ConfigError("sweep: base.command must be a non-sweep command")
        params = _require(sw, "parameters", "sweep")
        if not isinstance(params, list) or not params:
            raise ConfigError("sweep: parameters must be a non-empty list")
        for p in params:
            _require(p, "path", "sweep.parameters")
            values = _require(p, "values", "sweep.parameters")
            if not isinstance(values, list) or not values:
                raise ConfigError("sweep: each parameter needs a non-empty values list")
        for overrides in _sweep_tuples(cfg):
            _validate_leaf(_sweep_leaf(cfg, overrides), base_dir)
    else:
        _validate_leaf(cfg, base_dir)
    return cfg


def _check_certify_fields(cfg: dict) -> None:
    c = cfg.get("certify")
    if not isinstance(c, dict):
        raise ConfigError("certify: section missing or not an object")
    for key in ("rho", "k", "beta1"):
        value = _require(c, key, "certify")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"certify: {key} must be a number")
    if "beta2" not in c and "beta2_fraction" not in c:
        raise ConfigError("certify: need beta2 or beta2_fraction")


def _validate_leaf(cfg: dict, base_dir: Path) -> None:
    command = cfg.get("command")
    _parse_grid(_require(cfg, "grid", "config"))
    _parse_operator(_require(cfg, "operator", "config"))
    band_available = "certify" in cfg or command == "certify"
    if band_available:
        # field-level check only; feasibility of the band magnitudes is an
        # execution-time verdict, not a configuration error
        _check_certify_fields(cfg)
    coeffs = cfg.get("coefficients", {})
    for key in ("b", "c", "g"):
        if key in coeffs:
            spec = coeffs[key]
            if spec == "band":
                if not band_available:
                    raise ConfigError(
                        f"coefficients.{key}: 'band' profile needs a certify "
                        f"section to build from"
                    )
                continue
            _parse_profile(spec, base_dir, None, where=f"coefficients.{key}")
    try:
        if command == "solve":
            _solver_options(cfg)
            float(cfg.get("solver", {}).get("lambda", 0.0))
        elif command == "eigen":
            _eigen_options(cfg)
            sign = cfg.get("eigen", {}).get("sign", "up")
            if sign not in ("up", "down", "both"):
                raise ValueError(f"sign must be up/down/both, got {sign!r}")
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"{command}: {e}") from None
    if command == "solve" and "lambda" not in cfg.get("solver", {}):
        raise ConfigError("solver: solve command needs solver.lambda")


def _coefficients(cfg: dict, base_dir: Path, band_params=None) -> CoefficientField:
    coeffs = cfg.get("coefficients", {})
    return CoefficientField(
        b=_parse_profile(coeffs.get("b", 0.0), base_dir, band_params, "coefficients.b"),
        c=_parse_profile(coeffs.get("c", 0.0), base_dir, band_params, "coefficients.c"),
        g=_parse_profile(coeffs.get("g", 0.0), base_dir, band_params, "coefficients.g"),
    )


def _set_path(d: dict, path: str, value) -> None:
    keys = path.split(".")
    for k in keys[:-1]:
        d = d.setdefault(k, {})
    d[keys[-1]] = value


# ------------------------------- execution ----------------------------------


def _execute(cfg: dict, out_dir) -> tuple[int, dict]:
    """Run one non-sweep command; write artifacts if out_dir is given."""
    command = cfg["command"]
    base_dir = Path(cfg.get("_base_dir", "."))
    public_cfg = {k: v for k, v in cfg.items() if not k.startswith("_")}

    if command == "solve":
        grid = _parse_grid(cfg["grid"])
        op = _parse_operator(cfg["operator"])
        coeff = _coefficients(cfg, base_dir)
        opts = _solver_options(cfg)
        lam = float(cfg["solver"]["lambda"])
        if cfg.get("solver", {}).get("general", False):
            report = solve_general(op, coeff, lam, None, grid, opts)
        else:
            report = solve_neumann(op, coeff, lam, None, grid, opts)
        summary = report.summary()
        summary["barrier_bound"] = report.barrier_bound
        summary["sandwich_ok"] = report.sandwich_ok
        if out_dir is not None:
            report.solution.to_csv(out_dir / "solution.csv")
            _write_json(
                out_dir / "report.json",
                {
                    "config": public_cfg,
                    "converged": report.converged,
                    "bound_violation": report.bound_violation,
                    "residual_sup": report.residual_sup,
                    "iterations": report.iterations,
                    "dt": report.dt,
                    "sup_norm": report.solution.sup_norm(),
                    "barrier_bound": report.barrier_bound,
                    "barrier_ok": report.barrier_ok,
                    "sandwich_ok": report.sandwich_ok,
                },
            )
        return (0 if report.converged else 2), summary

    if command == "eigen":
        grid = _parse_grid(cfg["grid"])
        op = _parse_operator(cfg["operator"])
        band_params = None
        if "certify" in cfg:
            band_params = _parse_certify_params(cfg, grid, op)
        coeff = _coefficients(cfg, base_dir, band_params)
        opts = _eigen_options(cfg)
        sign = cfg.get("eigen", {}).get("sign", "up")
        payload = {"config": public_cfg}
        summary = {}
        if sign in ("up", "both"):
            est = lambda_up(op, coeff, grid, opts)
            payload["up"] = est.summary()
            summary.update({f"up_{k}": v for k, v in est.summary().items()})
            if out_dir is not None:
                est.eigenfunction.to_csv(out_dir / "eigenfunction_up.csv")
        if sign in ("down", "both"):
            est = lambda_down(op, coeff, grid, opts)
            payload["down"] = est.summary()
            summary.update({f"down_{k}": v for k, v in est.summary().items()})
            if out_dir is not None:
                est.eigenfunction.to_csv(out_dir / "eigenfunction_down.csv")
        if out_dir is not None:
            _write_json(out_dir / "eigen.json", payload)
        return 0, summary

    if command == "certify":
        grid = _parse_grid(cfg["grid"])
        op = _parse_operator(cfg["operator"])
        params = _parse_certify_params(cfg, grid, op)
        v = build_supersolution(params)
        coeffs = cfg.get("coefficients", {})
        c_profile = _parse_profile(
            coeffs.get("c", "band"), base_dir, params, "coefficients.c"
        )
        cert = verify(params, v, c_profile, grid)
        if out_dir is not None:
            _write_json(
                out_dir / "certificate.json",
                {"config": public_cfg, **cert.to_dict()},
            )
        return (0 if cert.accepted else 2), cert.summary()

    if command == "check-operator":
        grid = _parse_grid(cfg["grid"])
        op = _parse_operator(cfg["operator"])
        samples = int(cfg.get("check", {}).get("samples", 10000))
        seed = cfg["seed"]
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

    raise ConfigError(f"config: unknown command {command!r}")


def _sweep_leaf(cfg: dict, overrides) -> dict:
    """The config of one sweep point: the base with its overrides applied."""
    leaf = copy.deepcopy(cfg["sweep"]["base"])
    for path, value in overrides:
        _set_path(leaf, path, value)
    leaf["seed"] = cfg["seed"]
    leaf["_base_dir"] = cfg.get("_base_dir", ".")
    return leaf


def _sweep_worker(args):
    cfg, overrides = args
    try:
        code, summary = _execute(_sweep_leaf(cfg, overrides), None)
        status = "ok" if code == 0 else "reject"
    except _COMPUTE_ERRORS as e:
        status, summary = "error", {"error": str(e)}
    return status, summary


def _sweep_tuples(cfg: dict) -> list:
    """The (path, value) overrides of every sweep point, in row order."""
    params = cfg["sweep"]["parameters"]
    combos = itertools.product(*(p["values"] for p in params))
    return [[(p["path"], v) for p, v in zip(params, combo)] for combo in combos]


def _run_sweep(cfg: dict, out_dir: Path) -> int:
    sw = cfg["sweep"]
    paths = [p["path"] for p in sw["parameters"]]
    tuples = _sweep_tuples(cfg)
    workers = int(sw.get("workers", 0)) or (os.cpu_count() or 1)
    workers = max(1, min(workers, len(tuples)))

    if workers == 1:
        results = [_sweep_worker((cfg, t)) for t in tuples]
    else:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, [(cfg, t) for t in tuples]))

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
        cfg = resolve_config(config, seed_override=seed, base_dir=base_dir)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg["command"] == "sweep":
            return _run_sweep(cfg, out)
        code, _ = _execute(cfg, out)
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
