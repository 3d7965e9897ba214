"""One pass of each workload, with its output checks.

``prepare(workload, inputs, ctx)`` turns the plain-data inputs into a list of
operations (``(label, callable)``); calling an operation runs it and returns
one ``Outcome``: a solve, an eigen estimate or another CLI command.
Preparing builds the grids, operators and coefficient fields, so it is part
of set-up.  A CLI command resolves and validates its config inside
``cli.run``, in the timed pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import eigenball as eb
from eigenball import cli
from spans import iterations

MANUFACTURED_C = 10.0  # |u_h - u| <= C h^2; the measured constant is 4.71


@dataclass
class Outcome:
    label: str
    kind: str
    ok: bool  # converged, accepted, passed, or exit code 0
    check_ok: bool = True  # the output check
    may_fail: bool = False  # non-convergence is a documented known failure
    iterations: int = 0
    values: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def failed(self) -> bool:
        """Counts toward failed_frac."""
        return not (self.ok and self.check_ok)

    @property
    def unexpected(self) -> bool:
        """Counts toward the result's ``failed``."""
        return not self.check_ok or (not self.ok and not self.may_fail)


@dataclass
class Context:
    seed: int
    tracer: object
    scratch: Path
    digests: dict = field(default_factory=dict)

    @contextmanager
    def out_dir(self):
        with tempfile.TemporaryDirectory(dir=self.scratch) as d:
            yield Path(d)

    def run_cli(self, cfg: dict, out: Path) -> int:
        return self.tracer.call("cli.run", cli.run, cfg, out, seed=self.seed)


# ------------------------------ eigen_threshold ------------------------------


def _eigen_command(ctx: Context, label: str, cfg: dict):
    with ctx.out_dir() as out:
        code = ctx.run_cli(cfg, out)
        if code != 0:
            return [Outcome(label, "eigen", ok=False, detail=f"exit code {code}")]
        up = json.loads((out / "eigen.json").read_text())["up"]
        phi = np.loadtxt(out / "eigenfunction_up.csv", delimiter=",", skiprows=1)[:, 1]
    lo, hi, mid = up["lambda_lo"], up["lambda_hi"], up["lambda_mid"]
    if label == "anchor":
        # c = -1 has lambda = 1 with eigenfunction 1 for every operator
        phi_err = float(np.max(np.abs(phi - 1.0)))
        check = lo <= 1.0 <= hi and phi_err <= 1e-6
        detail = f"bracket [{lo:.9g}, {hi:.9g}], |phi - 1| = {phi_err:.2e}"
        values = {"lambda_err": abs(mid - 1.0)}
    else:
        check = lo >= 0.0 and float(phi.min()) > 0.0
        detail = f"bracket [{lo:.9g}, {hi:.9g}], min phi = {phi.min():.3e}"
        values = {}
    return [Outcome(label, "eigen", ok=True, check_ok=check, values=values, detail=detail)]


def _command(ctx: Context, label: str, cfg: dict, artifact: str, accept):
    """A CLI command whose JSON artifact must satisfy ``accept`` and hash
    the same every time the same config runs."""
    with ctx.out_dir() as out:
        code = ctx.run_cli(cfg, out)
        data = (out / artifact).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    same = ctx.digests.setdefault(json.dumps(cfg, sort_keys=True), digest) == digest
    check = accept(json.loads(data)) and same
    detail = f"exit code {code}" + ("" if same else f", {artifact} bytes differ")
    return [Outcome(label, "command", ok=code == 0, check_ok=check, detail=detail)]


ARTIFACTS = {
    "certify": ("certificate.json", lambda p: p["verdict"] == "accept"),
    "check-operator": ("operator_checks.json", lambda p: p["passed"] is True),
}


def _command_ops(ctx, commands):
    ops = []
    for label, cfg in commands:
        if cfg["command"] == "eigen":
            call = functools.partial(_eigen_command, ctx, label, cfg)
        else:
            artifact, accept = ARTIFACTS[cfg["command"]]
            call = functools.partial(_command, ctx, label, cfg, artifact, accept)
        ops.append((label, call))
    return ops


def _prepare_eigen_threshold(inputs, ctx):
    return _command_ops(ctx, inputs["commands"])


# --------------------------------- solve_mix ---------------------------------


def _operator(spec: dict) -> eb.EllipticOperator:
    kind = spec["kind"]
    if kind == "p_laplacian":
        return eb.EllipticOperator.p_laplacian(spec["p"])
    if kind == "anisotropic":
        return eb.EllipticOperator.anisotropic(
            spec["a"], spec["A"], spec["q"], spec["c0"],
            b1_profile=spec["b1"], b2_profile=spec["b2"],
        )
    ctor = {
        "pucci_minus": eb.EllipticOperator.pucci_minus,
        "pucci_plus": eb.EllipticOperator.pucci_plus,
    }[kind]
    return ctor(spec["a"], spec["A"], spec["alpha"])


def _cosine_data(a: float):
    def g(r):
        return -1.0 + a * np.cos(np.pi * np.asarray(r, dtype=float))

    return g


class Manufactured:
    """u(r) = base + cos(pi r) on the unit ball in R^2, as in the test suite.

    Even in r with all odd derivatives vanishing at r = 0 and r = 1, so the
    Neumann condition holds and ``forcing`` makes u the exact solution of
    Delta u - u = g.
    """

    def __init__(self, base: float):
        self.base = base

    def u(self, r):
        return self.base + np.cos(np.pi * r)

    def forcing(self, r):
        r = np.asarray(r, dtype=float)
        d1 = -np.pi * np.sin(np.pi * r)
        d2 = -np.pi**2 * np.cos(np.pi * r)
        tangential = np.where(r > 0, d1 / np.where(r > 0, r, 1.0), d2)
        return d2 + tangential - self.u(r)


def _solve(ctx, spec, op, coeff, lam, grid):
    rep = ctx.tracer.call(
        "solver.solve_neumann", eb.solve_neumann, op, coeff, lam, None, grid,
        work=iterations,
    )
    # the a-posteriori barrier must hold for every converged solve
    check = rep.barrier_ok is True if rep.converged else True
    return [
        Outcome(
            spec["label"], "solve", ok=rep.converged, check_ok=check,
            may_fail=not spec["expect_converged"], iterations=rep.iterations,
            detail=f"residual {rep.residual_sup:.2e}",
        )
    ]


def _manufactured(ctx, mfg, grid):
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=mfg.forcing)
    rep = ctx.tracer.call(
        "solver.solve_neumann", eb.solve_neumann, eb.EllipticOperator.laplacian(),
        coeff, 0.0, None, grid, work=iterations,
    )
    err = float(np.max(np.abs(rep.solution.values - mfg.u(grid.nodes))))
    check = rep.converged and rep.barrier_ok is True and err <= MANUFACTURED_C * grid.h**2
    return [
        Outcome(
            "manufactured", "solve", ok=rep.converged, check_ok=check,
            iterations=rep.iterations, values={"mfg_err": err},
            detail=f"|u_h - u| = {err:.3e} (bound {MANUFACTURED_C * grid.h**2:.3e})",
        )
    ]


def _general(ctx, shift, grid):
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=lambda r: np.sin(3.0 * r) - shift)
    rep = ctx.tracer.call(
        "eigen.solve_general", eb.solve_general, eb.EllipticOperator.laplacian(),
        coeff, 0.0, None, grid, work=iterations,
    )
    check = rep.sandwich_ok is True if rep.converged else True
    return [
        Outcome(
            "solve_general", "general", ok=rep.converged, check_ok=check,
            may_fail=True, iterations=rep.iterations,
            detail=f"residual {rep.residual_sup:.2e}",
        )
    ]


def _prepare_solve_mix(inputs, ctx):
    grids = {}

    def grid(n):
        return grids.setdefault(n, eb.build_grid(1.0, 2, n))

    coeff_c = eb.poly_profile(inputs["c"])
    ops = []
    for spec in inputs["solves"]:
        coeff = eb.CoefficientField(b=0.0, c=coeff_c, g=_cosine_data(spec["amplitude"]))
        call = functools.partial(
            _solve, ctx, spec, _operator(spec["operator"]), coeff, inputs["lam"],
            grid(spec["n"]),
        )
        ops.append((spec["label"], call))
    mfg = inputs["manufactured"]
    ops.append(
        ("manufactured", functools.partial(_manufactured, ctx, Manufactured(mfg["base"]), grid(mfg["n"])))
    )
    gen = inputs["general"]
    ops.append(("solve_general", functools.partial(_general, ctx, gen["shift"], grid(gen["n"]))))
    return ops + _command_ops(ctx, inputs["commands"])


def prepare(workload: str, inputs: dict, ctx: Context):
    return {
        "eigen_threshold": _prepare_eigen_threshold,
        "solve_mix": _prepare_solve_mix,
    }[workload](inputs, ctx)
