"""Residual assembly and nonlinear solution of the radial Neumann problem.

``solve_neumann`` computes the solution of

    F(x, Du, D^2 u) + b |Du|^alpha Du . x/|x| + (c(r) + lambda) |u|^alpha u = g(r)

on the ball under the homogeneous Neumann condition, in the coercive regime
c + lambda <= -c0 < 0.  The discrete problem is driven to a steady state by
pseudo-transient continuation: each step solves the tridiagonal system
(I - dt L) du = dt * residual with L the frozen-coefficient linearization,
and dt follows an adaptive policy (halve on residual increase, grow 1.1x on
decrease).  L is built once per accepted iterate; a rejected step only
changes dt and reuses it.  Since the frozen operator reproduces the
nonlinear one exactly at the current iterate, large dt steps degenerate
into Picard/Howard policy iteration; for gradient exponent alpha = 0 the
policy steps are taken directly, with the factorization cached while the
eigenvalue sign pattern is unchanged.

The stencil is in flux form for every alpha: w = |s|^alpha s on half nodes,
s = (u_{i+1} - u_i)/h (floored for alpha < 0), with odd ghost fluxes, so w
vanishes exactly at r = 0 and r = R, where the solution is only
C^{1,beta}.  Row i weighs the radial eigenvalue D/(alpha+1), D the flux
difference over h, and the tangential one M/r_i, M the mean flux (D at
r = 0, 0 at r = R; w_{i+1/2}/r_{i+1/2} in rows near the axis where M would
break monotonicity); the drift reads M.  For alpha = 0, w = s and this is
the central stencil, except in those one-sided rows.  L is the Jacobian
(the frozen-policy operator for alpha = 0); for alpha != 0 a watchdog
forces Newton steps through stalls, and a solve that misses tol gets one
more run from a fresh dt.

``monotone_iteration`` runs the shifted-problem fixed point

    u_{n+1} solves  F + b-term + (c - |c|_inf - 1)|u_{n+1}|^alpha u_{n+1}
                    = g - (lambda + |c|_inf + 1)|u_n|^alpha u_n,   u_1 = 0,

whose bounded/unbounded dichotomy detects the principal-eigenvalue
threshold.  With g <= 0 the iterates increase from 0; with g >= 0
(direction="down") they decrease.  ``eigen.solve_general`` runs the same
loop (``_shifted_iterates``) from the negative envelope instead of 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .grid import GridFunction, RadialGrid
# unused here, but the benchmark's tracer wraps eigenball.solver.derivative_arrays
from .grid import derivative_arrays  # noqa: F401
from .operators import (
    CoefficientField,
    EllipticOperator,
    gradient_floor,
    sample_profile,
    signed_power,
)

__all__ = [
    "Verdict",
    "SolveOptions",
    "SolveReport",
    "IterationReport",
    "SolveWorkspace",
    "PreconditionError",
    "InnerSolveError",
    "residual",
    "solve_neumann",
    "monotone_iteration",
]

DT_GROWTH = 1.1
DT_SHRINK = 0.5
DT_MAX = 1e12
HOWARD_MAX_ROUNDS = 64

# safety factor on the eps * ||L|| backward error of the stencil
ROUNDOFF_SAFETY = 10.0

_gttrf, _gttrs, _gtsv = get_lapack_funcs(("gttrf", "gttrs", "gtsv"), (np.array([1.0]),))


def _supabs(x) -> float:
    return float(max(np.maximum.reduce(x), -np.minimum.reduce(x)))


def _rounding_floor(op, grid, c_inf) -> float:
    """Attainable residual per unit sup-norm of the solution: the backward
    error eps * (4 A / h^2 + |c|_inf + 1) of the stencil, with a safety
    factor."""
    _, Aeff = op.ellipticity_bounds()
    return ROUNDOFF_SAFETY * np.finfo(float).eps * (4.0 * Aeff / grid.h**2 + c_inf + 1.0)


class PreconditionError(ValueError):
    """A solver precondition (sign of the zero-order coefficient, sign of g)
    is violated; the message lists the offending nodes."""


class InnerSolveError(RuntimeError):
    """An inner solve of the monotone iteration failed to converge."""

    def __init__(self, step: int, detail: str):
        self.step = step
        super().__init__(f"inner solve failed at iteration step {step}: {detail}")


class Verdict(enum.Enum):
    CONVERGED = "converged"
    UNBOUNDED = "unbounded"
    MAX_ITER = "max_iter"


class _TriFactor:
    """LU factorization of a tridiagonal matrix (LAPACK gttrf/gttrs)."""

    __slots__ = ("_lu",)

    def __init__(self, lower, diag, upper):
        dlf, df, duf, du2, ipiv, info = _gttrf(lower, diag, upper)
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrf info={info}")
        self._lu = (dlf, df, duf, du2, ipiv)

    def solve(self, rhs):
        x, info = _gttrs(*self._lu, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrs info={info}")
        return x


@dataclass
class SolveOptions:
    """Options for ``solve_neumann``, ``monotone_iteration`` and
    ``solve_general``.

    ``tol`` is an absolute sup-norm residual (solve) or sup-norm change
    (iteration) tolerance.  ``dt0`` overrides the CFL-style initial pseudo
    time step.  ``initial`` seeds the iteration (zeros by default).  A
    ``workspace`` carries factorization and step-size state between related
    solves; a solve owns its workspace, so concurrent solves must not share
    one.
    """

    tol: float = 1e-9
    max_iter: int = 20000
    U_max: float = 1e6
    dt0: Optional[float] = None
    initial: object = None
    max_rejects: int = 60
    inner_max_iter: int = 20000
    workspace: Optional["SolveWorkspace"] = None


class SolveWorkspace:
    """Mutable cache shared by consecutive solves of the same frozen problem."""

    __slots__ = ("grid", "op", "b_ref", "c_ref", "pattern", "factor", "dt")

    def __init__(self):
        self.grid = None
        self.op = None
        self.b_ref = None
        self.c_ref = None
        self.pattern = None
        self.factor = None
        self.dt = None

    def rebind(self, grid, op, b, c_eff):
        same = (
            self.grid is grid
            and self.op is op
            and (self.b_ref is b or np.array_equal(self.b_ref, b))
            and (self.c_ref is c_eff or np.array_equal(self.c_ref, c_eff))
        )
        if not same:
            self.pattern = None
            self.factor = None
            self.dt = None
        self.grid, self.op = grid, op
        self.b_ref, self.c_ref = b, c_eff


@dataclass
class SolveReport:
    """Outcome of one Neumann solve."""

    solution: GridFunction
    residual_sup: float
    iterations: int
    dt: float
    converged: bool
    bound_violation: bool
    barrier_bound: Optional[float] = None
    barrier_ok: Optional[bool] = None
    sandwich_ok: Optional[bool] = None

    def summary(self):
        return {
            "converged": self.converged,
            "bound_violation": self.bound_violation,
            "residual_sup": self.residual_sup,
            "iterations": self.iterations,
            "sup_norm": self.solution.sup_norm(),
        }


@dataclass
class IterationReport:
    """Trace of the monotone iteration."""

    sup_norms: list
    min_values: list
    monotone_flags: list
    final: GridFunction
    verdict: Verdict

    @property
    def iterations(self) -> int:
        return len(self.sup_norms) - 1

    @property
    def monotone(self) -> bool:
        return all(self.monotone_flags)


# ------------------------- array-level machinery ----------------------------


class _Driver:
    """Repeated solves of one frozen-coefficient problem with varying data.

    Owns the node samples of b and c + lambda, the parts of the bands that
    do not depend on the iterate (weights, tangential flux coefficients,
    zero-order factor), and the workspace.  All heavy per-step work
    (residual, bands, factor) happens here so the iteration layers above
    stay thin.
    """

    __slots__ = (
        "op", "grid", "b", "c_eff", "zc", "ws", "alpha", "n", "h", "r", "N",
        "w_rad", "w_tan", "sign_weights", "policy", "tr", "tl", "bh",
    )

    def __init__(self, op, grid, b, c_eff, ws=None):
        self.op = op
        self.grid = grid
        self.b = b if (b is not None and np.any(b)) else None
        self.c_eff = c_eff
        self.ws = ws if ws is not None else SolveWorkspace()
        self.ws.rebind(grid, op, self.b, c_eff)
        self.alpha = op.alpha
        self.n = grid.n
        self.h = grid.h
        self.r = grid.nodes
        self.N = grid.N_dim
        # zero-order band factor (alpha + 1) c; exactly c_eff for alpha = 0
        self.zc = (self.alpha + 1.0) * c_eff
        # weights where a Hessian eigenvalue is >= 0 and where it is < 0
        pos = op.second_order_weights(1.0, 1.0, self.r)
        neg = op.second_order_weights(-1.0, -1.0, self.r)
        self.sign_weights = not all(map(np.array_equal, pos, neg))
        if self.sign_weights:
            # Pucci: one scalar weight per sign, the same for both eigenvalues
            self.policy = (float(pos[0]), float(neg[0]))
            self.w_rad = self.w_tan = None
        else:
            w_rad, w_tan = pos
            # one shared array marks an isotropic weight (residual short form)
            self.w_rad = np.full(self.n, w_rad)
            isotropic = np.ndim(w_rad) == 0 and w_rad == w_tan
            self.w_tan = self.w_rad if isotropic else np.full(self.n, w_tan)
        # the tangential eigenvalue (times N-1) of row i is
        # tr w_{i+1/2} + tl w_{i-1/2}, one-sided in the rows where the mean
        # would weigh u_{i-1} negatively under some policy
        nm1, h = self.N - 1, self.h
        self.tr = np.zeros(self.n)
        self.tr[0] = nm1 / h
        self.tr[1:-1] = (0.5 * nm1) * (1.0 / self.r[1:-1])
        self.tl = self.tr.copy()
        self.tl[0] = -self.tr[0]
        w_rad = min(self.policy) if self.sign_weights else self.w_rad
        w_tan = max(self.policy) if self.sign_weights else self.w_tan
        rows = 2.0 * np.arange(self.n) * w_rad < (self.alpha + 1.0) * nm1 * w_tan
        rows[[0, -1]] = False
        self.tr[rows] = nm1 / (self.r[rows] + 0.5 * h)
        self.tl[rows] = 0.0
        self.bh = 0.0 if self.b is None else 0.5 * self.b

    # -- residual -----------------------------------------------------------

    def residual(self, g, v):
        """Residual LHS - RHS plus the frozen data ``aux`` the bands need.

        aux = (s, w_rad, w_tan, m, delta, sup|v|): the half-node slopes s,
        the weights of the radial and tangential eigenvalues (the Pucci
        policy), and for alpha != 0 the floored |s|, its floor delta and
        sup|v| (all three None for alpha = 0).
        """
        a = self.alpha
        s = (v[1:] - v[:-1]) / self.h
        # fluxes w = Phi(s) padded with the odd ghost fluxes
        # w_{-1/2} = -w_{1/2} and w_{n-1/2} = -w_{n-3/2}
        wp = np.empty(self.n + 1)
        if a != 0.0:
            vsup = _supabs(v)
            delta = 1e-8 * (1.0 + vsup / self.grid.R)
            m = gradient_floor(np.abs(s), delta)
            np.multiply(m**a, s, out=wp[1:-1])
            vpow = signed_power(v, a)
        else:
            vsup = delta = m = None
            wp[1:-1] = s
            vpow = v
        wp[0], wp[-1] = -wp[1], -wp[-2]
        wr, wl = wp[1:], wp[:-1]
        # radial eigenvalue D/(alpha+1) and tangential one times N-1
        rad = (wr - wl) / ((a + 1.0) * self.h)
        tan = self.tr * wr
        tan += self.tl * wl
        if self.sign_weights:
            lo, hi = self.policy
            w_rad = np.where(rad >= 0, lo, hi)
            w_tan = np.where(tan >= 0, lo, hi)
        else:
            w_rad, w_tan = self.w_rad, self.w_tan
        if w_rad is w_tan:  # isotropic weight
            res = rad + tan
            res *= w_rad
        else:
            res = w_rad * rad
            res += w_tan * tan
        if self.b is not None:
            res += self.bh * (wr + wl)
        res += self.c_eff * vpow
        res -= g
        return res, (s, w_rad, w_tan, m, delta, vsup)

    # -- frozen linearization ----------------------------------------------

    def _flux_weights(self, w_rad, w_tan):
        """Coefficients P of w_{i+1/2} and Q of w_{i-1/2} in row i under the
        weights (w_rad, w_tan)."""
        rad = w_rad / ((self.alpha + 1.0) * self.h)
        return rad + w_tan * self.tr + self.bh, w_tan * self.tl - rad + self.bh

    def _bands(self, v, aux):
        """Tridiagonal bands of the linearization at the iterate v: the
        Jacobian of the flux form under the policy frozen in aux.

        For alpha = 0 that is the frozen-coefficient operator L with
        L v = G(v) exactly, which makes the large-dt limit a policy
        iteration.
        """
        s, w_rad, w_tan, m, delta, vsup = aux
        P, Q = self._flux_weights(w_rad, w_tan)
        a = self.alpha
        if a == 0.0:
            # Phi(s) = s: d wr/d v_{i+1} = d wl/d v_i = 1/h
            pr, ql = P / self.h, Q / self.h
            z = self.zc
        else:
            # Phi'(s) = (alpha+1)|s|^alpha with |s| floored at
            # 1e-6 (1 + sup|v|) for alpha > 0; the derivative of the floored
            # Phi for alpha < 0
            if a > 0.0:
                dphi = (a + 1.0) * np.maximum(np.abs(s), 1e-6 * (1.0 + vsup)) ** a
            else:
                abs_s = np.abs(s)
                q = np.where(abs_s >= delta, abs_s, s * s / delta)
                dphi = m**a * (1.0 + a * q / m)
            dphi /= self.h
            # d wr/d v_{i+1} and d wl/d v_i, ghost fluxes mirrored at the ends
            pr = P * np.append(dphi, dphi[-1])
            ql = Q * np.concatenate(((dphi[0],), dphi))
            # zero-order Jacobian (alpha+1) c |v|^alpha, floored away from the
            # |v| = 0 singularity; any negative surrogate is admissible here
            z = self.zc * np.maximum(np.abs(v), 1e-6 * (1.0 + vsup)) ** a
        diag = ql - pr + z
        upper = pr[:-1]
        upper[0] -= ql[0]
        lower = -ql[1:]
        lower[-1] += pr[-1]
        return lower, diag, upper

    def _default_dt0(self, s):
        _, Aeff = self.op.ellipticity_bounds()
        gfac = (_supabs(s) + 1.0) ** max(self.alpha, 0.0)
        return self.h**2 / (2.0 * Aeff * self.N * gfac)

    # -- solvers --------------------------------------------------------------

    def _howard(self, g, v, res, aux, rs, tol, max_rounds=HOWARD_MAX_ROUNDS):
        """Policy-iteration / refinement rounds (alpha = 0 only)."""
        ws = self.ws
        steps = 0
        for _ in range(max_rounds):
            if rs <= tol:
                break
            # the bands depend on v only through the policy (w_rad, w_tan)
            pattern = np.concatenate(aux[1:3]).tobytes()
            if ws.factor is None or ws.pattern != pattern:
                try:
                    ws.factor = _TriFactor(*self._bands(v, aux))
                except np.linalg.LinAlgError:
                    ws.factor = None
                    ws.pattern = None
                    break
                ws.pattern = pattern
            v_new = v - ws.factor.solve(res)
            res_new, aux_new = self.residual(g, v_new)
            rs_new = _supabs(res_new)
            # non-finite v_new propagates into rs_new, so one check covers both
            if not (rs_new < rs):
                break
            v, res, aux, rs = v_new, res_new, aux_new, rs_new
            steps += 1
        return v, res, aux, rs, steps

    def _ptc(self, g, v, res, aux, rs, tol, opts, budget, dt_start, watchdogs=0):
        """Adaptive pseudo-time stepping until the residual drops below tol.

        Step acceptance and the dt policy (halve on increase, grow 1.1x on
        decrease) use the Euclidean residual norm as merit: it tolerates the
        single-node flips the degenerate gradient factor produces, and since
        sup <= l2 the sup-norm convergence test is only taken earlier.  The
        bands are built once per accepted iterate and reused by the steps
        rejected from it, where only dt changes; each step is one LAPACK
        gtsv solve of (I - dt L) du = dt * residual.
        Returns (v, res, aux, rs, steps, dt_used, bound_violation); stops on
        a stall (too many consecutive rejected steps), on the step budget, or
        on an iterate escaping past U_max.
        """
        dt = dt_start
        if dt is None:
            dt = self._default_dt0(aux[0])
        dt_used = dt
        steps = 0
        rejects = 0
        bound_violation = False
        merit = math.sqrt(res @ res)
        best = (v, res, aux, rs)
        bands = None
        while steps < budget and rs > tol:
            if bands is None:
                if _supabs(v) > opts.U_max:
                    bound_violation = True
                    break
                lower, diag, upper = bands = self._bands(v, aux)
            forced = False
            if rejects > opts.max_rejects:
                # the merit landscape has a local minimum away from the
                # solution (degenerate rows do this); force one full Newton
                # step through the barrier, keeping the best state on file
                if watchdogs == 0:
                    break
                watchdogs -= 1
                rejects = 0
                dt = DT_MAX
                forced = True
            # the four arrays are temporaries, so LAPACK may overwrite them
            *_, du, info = _gtsv(
                -dt * lower, 1.0 - dt * diag, -dt * upper, dt * res, 1, 1, 1, 1
            )
            if info != 0:
                merit_new = math.inf
            else:
                v_new = v + du
                res_new, aux_new = self.residual(g, v_new)
                merit_new = math.sqrt(res_new @ res_new)
            if not (merit_new < merit) and not (forced and math.isfinite(merit_new)):
                dt *= DT_SHRINK
                rejects += 1
                continue
            v, res, aux, merit = v_new, res_new, aux_new, merit_new
            bands = None
            rs = _supabs(res)
            if rs < best[3]:
                best = (v, res, aux, rs)
            steps += 1
            rejects = 0
            dt = min(dt * DT_GROWTH, DT_MAX)
            dt_used = dt
            self.ws.dt = dt
        if rs > best[3]:
            v, res, aux, rs = best
        return v, res, aux, rs, steps, dt_used, bound_violation

    def solve(self, g, v0, opts, res0=None, aux0=None):
        """Drive the residual below opts.tol from the initial state v0.

        Returns (v, res, aux, rs, iterations, dt, converged, bound_violation).
        ``res0``/``aux0`` may carry a residual already evaluated at v0.
        """
        v = v0
        if self.alpha > 0.0 and not v.any():
            # the Jacobian is ~0 at u = 0: start from c |u|^alpha u = g
            v = signed_power(g / self.c_eff, -self.alpha / (self.alpha + 1.0))
            res0 = None
        if res0 is None or aux0 is None:
            res0, aux0 = self.residual(g, v)
        res, aux = res0, aux0
        rs = _supabs(res)
        tol = opts.tol
        iterations = 0
        dt_used = math.inf
        bound_violation = False

        if self.alpha == 0.0 and rs > tol:
            v, res, aux, rs, steps = self._howard(g, v, res, aux, rs, tol)
            iterations += steps

        if rs > tol:
            # alpha != 0: the watchdog forces Newton steps through stalls, and
            # a solve that still misses tol gets a polish from a fresh dt
            dt0 = opts.dt0 if opts.dt0 is not None else self.ws.dt
            watchdogs = 0 if self.alpha == 0.0 else 3
            v, res, aux, rs, steps, dt_used, bound_violation = self._ptc(
                g, v, res, aux, rs, tol, opts, opts.max_iter, dt0, watchdogs
            )
            iterations += steps
            budget = opts.max_iter - iterations
            if self.alpha != 0.0 and rs > tol and not bound_violation and budget > 0:
                v, res, aux, rs, steps, dt_used, bound_violation = self._ptc(
                    g, v, res, aux, rs, tol, opts, budget, None, 2
                )
                iterations += steps

        return v, res, aux, rs, iterations, dt_used, rs <= tol, bound_violation


def _initial_array(opts, n):
    if opts.initial is None:
        return np.zeros(n)
    if isinstance(opts.initial, GridFunction):
        return opts.initial.values.copy()
    return np.asarray(opts.initial, dtype=float).copy()


def _shifted_iterates(op, grid, b, c, lam, g, u0, opts, workspace):
    """The shifted fixed point (module docstring) from u0.

    Yields ``(u_k, sup|u_k|, inner_tol)`` for at most ``opts.max_iter``
    steps.  The inner tolerance is tol/10 scaled by a bound on the inner
    data, so it stays meaningful when the iterates grow large, and never
    below the stencil's rounding floor; an inner solve that misses it
    raises ``InnerSolveError``.
    """
    c_inf = float(np.max(np.abs(c)))
    factor = lam + c_inf + 1.0
    g_sup = float(np.max(np.abs(g)))
    driver = _Driver(op, grid, b, c - c_inf - 1.0, workspace)
    # attainable residual floor of the inner solves, per unit of ||u||
    eps_floor = _rounding_floor(op, grid, c_inf)
    inner = SolveOptions(max_iter=opts.inner_max_iter)
    u = u0
    sup = _supabs(u)
    res = aux = g_prev = None
    for step in range(1, opts.max_iter + 1):
        g_inner = g - factor * signed_power(u, op.alpha)
        if res is not None:
            # only the data changed since the last iterate, so the stored
            # residual shifts by the data difference exactly and the
            # derivative data (aux) at u is still valid
            res = res + (g_prev - g_inner)
        else:
            res, aux = driver.residual(g_inner, u)
        g_prev = g_inner
        # |g_inner|_inf <= |g|_inf + |factor| * sup^{alpha+1}; the analytic
        # bound is enough for tolerance/limit scaling
        g_scale = max(1.0, g_sup + abs(factor) * sup ** (op.alpha + 1.0))
        inner.tol = max(opts.tol / 10.0 * g_scale, eps_floor * (1.0 + sup))
        inner.U_max = 10.0 * g_scale ** (1.0 / (op.alpha + 1.0)) + 10.0
        u, res, aux, rs, _, _, ok, _ = driver.solve(g_inner, u, inner, res, aux)
        if not ok:
            raise InnerSolveError(
                step,
                f"residual_sup={rs:.3e} above tolerance {inner.tol:.3e}",
            )
        sup = _supabs(u)
        yield u, sup, inner.tol


# ------------------------------- public API ---------------------------------


def residual(
    op: EllipticOperator,
    coeff: CoefficientField,
    lam: float,
    g_profile,
    u: GridFunction,
) -> GridFunction:
    """Node-wise residual G(u) + lambda |u|^alpha u - g with Neumann stencils."""
    grid = u.grid
    r = grid.nodes
    b, c, _ = coeff.sample(r)
    g = sample_profile(g_profile if g_profile is not None else coeff.g, r)
    driver = _Driver(op, grid, b, c + lam)
    res, _ = driver.residual(g, u.values)
    return GridFunction(grid, res)


def solve_neumann(
    op: EllipticOperator,
    coeff: CoefficientField,
    lam: float,
    g_profile,
    grid: RadialGrid,
    opts: Optional[SolveOptions] = None,
) -> SolveReport:
    """Solve the Neumann problem in the coercive regime c + lambda < 0.

    Parameters
    ----------
    op, coeff : operator and coefficient field.
    lam : eigenvalue shift added to the zero-order coefficient.
    g_profile : right-hand side (callable, scalar, or node array); ``None``
        falls back to ``coeff.g``.
    grid : radial grid.
    opts : solver options; ``opts.tol`` is an absolute residual sup-norm.

    Returns
    -------
    SolveReport with the a-posteriori sup-norm barrier
    (|g|_inf / c0)^(1/(alpha+1)) + tol^(1/(alpha+1)) recorded; non-convergence
    is reported, never silently accepted.

    Raises
    ------
    PreconditionError if c + lambda >= 0 somewhere on the grid.
    """
    opts = opts if opts is not None else SolveOptions()
    op.validate_profiles(grid.nodes)
    r = grid.nodes
    b, c, _ = coeff.sample(r)
    g = sample_profile(g_profile if g_profile is not None else coeff.g, r)
    c_eff = c + lam
    bad = np.flatnonzero(c_eff >= 0)
    if bad.size:
        shown = ", ".join(f"r={r[i]:.6g} (c+lambda={c_eff[i]:.6g})" for i in bad[:8])
        more = "" if bad.size <= 8 else f" and {bad.size - 8} more"
        raise PreconditionError(
            f"solve_neumann requires c + lambda < 0 on all nodes; "
            f"violated at {bad.size} node(s): {shown}{more}"
        )
    c0 = float(-np.max(c_eff))
    driver = _Driver(op, grid, b, c_eff, opts.workspace)
    v0 = _initial_array(opts, grid.n)
    v, _, _, rs, iterations, dt, converged, bound_violation = driver.solve(g, v0, opts)
    report = SolveReport(
        solution=GridFunction(grid, v),
        residual_sup=rs,
        iterations=iterations,
        dt=dt,
        converged=converged,
        bound_violation=bound_violation and not converged,
    )
    expo = 1.0 / (op.alpha + 1.0)
    report.barrier_bound = float(np.max(np.abs(g))) ** expo / c0**expo + opts.tol**expo
    if report.converged:
        report.barrier_ok = report.solution.sup_norm() <= report.barrier_bound
    return report


def monotone_iteration(
    op: EllipticOperator,
    coeff: CoefficientField,
    lam: float,
    g_profile,
    grid: RadialGrid,
    opts: Optional[SolveOptions] = None,
    direction: str = "up",
) -> IterationReport:
    """Shifted-problem fixed point whose boundedness detects the threshold.

    direction="up" requires g <= 0 node-wise and produces nondecreasing
    nonnegative iterates; direction="down" requires g >= 0 and mirrors to
    nonincreasing nonpositive iterates.  Each inner problem has zero-order
    coefficient c - |c|_inf - 1 <= -1, so its solve precondition holds by
    construction.  Inner tolerances are tol/10, scaled by a bound on the
    inner right-hand side so they stay meaningful when the iterates grow
    large, and never below the stencil's rounding floor.
    """
    opts = opts if opts is not None else SolveOptions()
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    op.validate_profiles(grid.nodes)
    r = grid.nodes
    b, c, _ = coeff.sample(r)
    g = sample_profile(g_profile if g_profile is not None else coeff.g, r)
    if direction == "up" and np.max(g) > 0:
        raise PreconditionError(
            f"monotone_iteration(direction='up') requires g <= 0; "
            f"max g = {np.max(g):.6g}"
        )
    if direction == "down" and np.min(g) < 0:
        raise PreconditionError(
            f"monotone_iteration(direction='down') requires g >= 0; "
            f"min g = {np.min(g):.6g}"
        )

    u = np.zeros(grid.n)
    sup_norms = [0.0]
    min_values = [0.0]
    flags = []
    verdict = Verdict.MAX_ITER
    iterates = _shifted_iterates(op, grid, b, c, lam, g, u, opts, opts.workspace)
    for u_new, sup, inner_tol in iterates:
        dvec = u_new - u
        dmin = float(dvec.min())
        dmax = float(dvec.max())
        slack = 10.0 * inner_tol
        if direction == "up":
            flags.append(dmin >= -slack)
        else:
            flags.append(dmax <= slack)
        change = max(dmax, -dmin)
        u = u_new
        sup_norms.append(sup)
        min_values.append(float(u.min()))
        if sup_norms[-1] > opts.U_max:
            verdict = Verdict.UNBOUNDED
            break
        if change < opts.tol:
            verdict = Verdict.CONVERGED
            break

    return IterationReport(
        sup_norms=sup_norms,
        min_values=min_values,
        monotone_flags=flags,
        final=GridFunction(grid, u),
        verdict=verdict,
    )
