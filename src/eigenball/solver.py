"""Residual assembly and nonlinear solution of the radial Neumann problem.

``solve_neumann`` computes the solution of

    F(x, Du, D^2 u) + b |Du|^alpha Du . x/|x| + (c(r) + lambda) |u|^alpha u = g(r)

on the ball under the homogeneous Neumann condition, in the coercive regime
c + lambda <= -c0 < 0.  Every step is a Newton step: a tridiagonal solve
with the exact linearization L of the discrete operator.  For gradient
exponent alpha = 0, L is the frozen-policy operator (L v = G(v) exactly),
so the Newton steps are Howard policy iteration (Bokanowski, Maroso &
Zidani 2009), du = -L^-1 residual from a factorization cached while the
eigenvalue sign pattern is unchanged; for alpha != 0, L is the Jacobian.
A Newton step that does not lower the Euclidean residual norm is
backtracked: the points v + 2^-k du cost one residual each and no solve,
and the first that lowers the norm is accepted.  L is built once per
accepted iterate.  The solve ends unconverged when no point lowers the
norm before 2^-k sup|du| falls to eps (1 + sup|v|), the rounding of v, when
a step is rejected from an iterate whose residual is at its rounding floor
(``_floor``), or when LAPACK reports L singular.  ``eigen.solve_general``
runs the same solve below both principal eigenvalues, where c + lambda may
change sign but, for alpha = 0, every frozen-policy -L is still a
nonsingular M-matrix.

The stencil is in flux form for every alpha: w = m^alpha s on half nodes,
s = (u_{i+1} - u_i)/h, with odd ghost fluxes, so w vanishes exactly at
r = 0 and r = R, where the solution is only C^{1,beta}.  For alpha != 0,
m is |s| floored at delta = 1e-8 sup|u|/R (1e-8/R at u = 0); delta is
proportional to u, so the stencil is positively homogeneous of degree
alpha + 1, which the Collatz-Wielandt bracket of ``eigen`` uses.  Row i
weighs the radial eigenvalue D/(alpha+1), D the flux difference over h,
and the tangential one M/r_i, M the mean flux (D at
r = 0, 0 at r = R; w_{i+1/2}/r_{i+1/2} in rows near the axis where M would
break monotonicity).  The drift reads M, b/2 on each flux, in the rows
where that keeps the coefficient of w_{i+1/2} nonnegative and that of
w_{i-1/2} nonpositive under every policy, and the end rows, where the odd
ghost flux cancels it; elsewhere it is upwind, b w_{i+1/2} for b > 0 and
b w_{i-1/2} for b < 0.  So the stencil is monotone for every drift, at
first order in the upwind rows.  For alpha = 0, w = s and this is the
central stencil, except in the one-sided and upwind rows.

``monotone_iteration`` runs the shifted-problem fixed point

    u_{n+1} solves  F + b-term + (c - s)|u_{n+1}|^alpha u_{n+1}
                    = g - (lambda + s)|u_n|^alpha u_n,   u_1 = 0,

    s = max(max c + 1, -lambda),

whose bounded/unbounded dichotomy detects the principal-eigenvalue
threshold.  With g <= 0 the iterates increase from 0; with g >= 0
(direction="down") they decrease.  Its inner solves stop at ``_floor``
too.  Neither the eigen estimates nor ``eigen.solve_general`` run it; the
estimates' verdicts replay with it.

The dichotomy needs two facts about the shift s, and s is the smallest
that gives both: c - s <= -1, so every inner problem is coercive with the
barrier of ``solve_neumann``, and lambda + s >= 0, so the map
u_n -> u_{n+1} is order-preserving.  With g = 0 the map sends t phi, phi
the principal eigenfunction, to t' phi with
|t'|^alpha t' = |t|^alpha t (lambda + s)/(lambda_bar + s), where
lambda_bar + s >= 1 because lambda_bar >= -max c; for alpha = 0 that rate
is the contraction or growth of the change between iterates along phi.
Below lambda_bar the rate is < 1 and falls as s shrinks, above it the
rate is > 1 and rises as s shrinks, so the smallest admissible s settles
or escapes in the fewest steps.  For every lambda >= -|c|_inf - 1 it is at
most |c|_inf + 1, with equality at lambda = -|c|_inf - 1, the lower
envelope end of the eigenvalue estimates.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

# safety factor on the eps * ||L|| backward error of the stencil
ROUNDOFF_SAFETY = 10.0


def _tridiagonal_lapack():
    """LAPACK dgttrf and dgttrs from scipy's f2py extension
    ``scipy.linalg._flapack``, loaded without the ``scipy.linalg`` package.

    The package ``__init__`` costs most of the import of eigenball (its
    array-API shim loads numpy.f2py and numpy.testing); the extension alone
    takes a few ms.  An already imported extension is used as is.  Otherwise
    its file is loaded from scipy's install directory and the entry it makes
    in ``sys.modules`` is removed, so a later ``import scipy.linalg`` builds
    its own module; the extension is single-phase, so that module hands out
    these same routine objects.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        scipy = importlib.util.find_spec("scipy")
        locations = scipy.submodule_search_locations if scipy else None
        paths = [
            os.path.join(location, "linalg", "_flapack" + suffix)
            for location in locations or ()
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(
                f"eigenball needs scipy >= 1.10 for its LAPACK extension {name}, "
                "which was not found"
            )
        spec = importlib.util.spec_from_file_location(name, path)
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        sys.modules.pop(name, None)
    return flapack.dgttrf, flapack.dgttrs


_gttrf, _gttrs = _tridiagonal_lapack()


def _supabs(x) -> float:
    return float(np.maximum.reduce(np.abs(x)))


def _rounding(bands, w=None):
    """ROUNDOFF_SAFETY eps |L| w, the rounding of each row of L v for the
    bands L and any |v| <= w (w = 1 when None)."""
    lower, rows, upper = map(np.abs, bands)
    if w is not None:
        lower, rows, upper = lower * w[:-1], rows * w, upper * w[1:]
    rows[1:] += lower
    rows[:-1] += upper
    return ROUNDOFF_SAFETY * np.finfo(float).eps * rows


def _floor(v, bands) -> float:
    """ROUNDOFF_SAFETY eps ||L||_inf (1 + sup|v|), the smallest residual
    floating point resolves at the iterate v with bands L; ||L||_inf is the
    largest absolute row sum of L."""
    return float(_rounding(bands).max()) * (1.0 + _supabs(v))


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
    """LU factorization of a tridiagonal matrix (LAPACK gttrf/gttrs, bound
    from scipy's LAPACK extension by ``_tridiagonal_lapack``), the one
    linear solver of the package."""

    __slots__ = ("_lu", "bands")

    def __init__(self, lower, diag, upper):
        dlf, df, duf, du2, ipiv, info = _gttrf(lower, diag, upper)
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrf info={info}")
        self._lu = (dlf, df, duf, du2, ipiv)
        self.bands = (lower, diag, upper)

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
    (iteration) tolerance.  ``initial`` is the starting iterate of
    ``solve_neumann`` (zeros by default), a node array or GridFunction on
    its grid; ``monotone_iteration`` and ``solve_general`` start from their
    own iterates and ignore it.  A ``workspace`` carries the factorization
    state between related solves; a solve owns its workspace, so concurrent
    solves must not share one.
    """

    tol: float = 1e-9
    max_iter: int = 20000
    U_max: float = 1e6
    initial: object = None
    inner_max_iter: int = 20000
    workspace: Optional["SolveWorkspace"] = None


class SolveWorkspace:
    """Mutable cache shared by consecutive solves of the same frozen problem."""

    __slots__ = ("grid", "op", "b_ref", "c_ref", "pattern", "factor")

    def __init__(self):
        self.grid = None
        self.op = None
        self.b_ref = None
        self.c_ref = None
        self.pattern = None
        self.factor = None

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
        self.grid, self.op = grid, op
        self.b_ref, self.c_ref = b, c_eff


@dataclass
class SolveReport:
    """Outcome of one Neumann solve.

    ``iterations`` counts the accepted Newton steps and ``rejected`` the
    rejected Newton steps and backtracked points (``_Driver.solve``), for
    ``solve_neumann`` and ``solve_general`` alike; each costs one residual
    evaluation, and only a Newton step makes a tridiagonal solve.
    ``residual_floor`` is the smallest residual floating point resolves at
    the returned solution (``_floor``); a solve that stops there because
    ``tol`` lies below it reports ``converged`` False.
    """

    solution: GridFunction
    residual_sup: float
    iterations: int
    converged: bool
    bound_violation: bool
    barrier_bound: Optional[float] = None
    barrier_ok: Optional[bool] = None
    sandwich_ok: Optional[bool] = None
    residual_floor: Optional[float] = None
    rejected: int = 0

    def summary(self):
        return {
            "converged": self.converged,
            "bound_violation": self.bound_violation,
            "residual_sup": self.residual_sup,
            "residual_floor": self.residual_floor,
            "iterations": self.iterations,
            "rejected": self.rejected,
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
    do not depend on the iterate (weights, tangential and drift flux
    coefficients, zero-order factor), and the workspace.  All heavy
    per-step work (residual, bands, factor) happens here so the iteration
    layers above stay thin.
    """

    __slots__ = (
        "op", "grid", "b", "c_eff", "zc", "ws", "alpha", "n", "h", "r", "N",
        "w_rad", "w_tan", "sign_weights", "policy", "tr", "tl", "br", "bl",
        "last_bands",
    )

    def __init__(self, op, grid, b, c_eff, ws=None):
        self.op = op
        self.grid = grid
        self.b = b if (b is not None and np.any(b)) else None
        self.c_eff = c_eff
        self.ws = ws if ws is not None else SolveWorkspace()
        self.ws.rebind(grid, op, self.b, c_eff)
        self.last_bands = None
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
        # the drift of row i is br w_{i+1/2} + bl w_{i-1/2}: centred, b/2
        # each, where that keeps P >= 0 >= Q under every policy (P is
        # smallest at the least weights, Q largest at the least radial and
        # the largest tangential one), upwind elsewhere; the end rows stay
        # centred, where the odd ghost flux cancels it
        self.br = self.bl = 0.0
        if self.b is not None:
            P, _ = self._flux_weights(w_rad, w_rad if self.sign_weights else w_tan)
            _, Q = self._flux_weights(w_rad, w_tan)
            bh = 0.5 * self.b
            centred = (P + bh >= 0.0) & (Q + bh <= 0.0)
            centred[[0, -1]] = True
            self.br = np.where(centred, bh, np.maximum(self.b, 0.0))
            self.bl = np.where(centred, bh, np.minimum(self.b, 0.0))

    # -- residual -----------------------------------------------------------

    def residual(self, g, v):
        """Residual LHS - RHS plus the frozen data ``aux`` the bands need.

        aux = (s, w_rad, w_tan, m, delta, sup|v|): the half-node slopes s,
        the weights of the radial and tangential eigenvalues (the Pucci
        policy), and for alpha != 0 the floored |s|, its floor delta and
        sup|v| (all three None for alpha = 0).
        """
        a = self.alpha
        # fluxes w = Phi(s) padded with the odd ghost fluxes
        # w_{-1/2} = -w_{1/2} and w_{n-1/2} = -w_{n-3/2}
        wp = np.empty(self.n + 1)
        if a != 0.0:
            s = (v[1:] - v[:-1]) / self.h
            vsup = _supabs(v)
            # proportional to sup|v|, so G is positively homogeneous
            delta = 1e-8 * (vsup or 1.0) / self.grid.R
            m = gradient_floor(np.abs(s), delta)
            np.multiply(m**a, s, out=wp[1:-1])
            vpow = signed_power(v, a)
        else:
            vsup = delta = m = None
            # w = s, computed in place
            s = np.subtract(v[1:], v[:-1], out=wp[1:-1])
            s /= self.h
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
            res += self.br * wr
            res += self.bl * wl
        res += self.c_eff * vpow
        res -= g
        return res, (s, w_rad, w_tan, m, delta, vsup)

    # -- frozen linearization ----------------------------------------------

    def _flux_weights(self, w_rad, w_tan, terms=False):
        """Coefficients P of w_{i+1/2} and Q of w_{i-1/2} in row i under the
        weights (w_rad, w_tan); ``terms`` as in ``_bands``."""
        rad = w_rad / ((self.alpha + 1.0) * self.h)
        if terms:
            P = rad + abs(w_tan * self.tr) + abs(self.br)
            return P, -rad - abs(w_tan * self.tl) - abs(self.bl)
        return rad + w_tan * self.tr + self.br, w_tan * self.tl - rad + self.bl

    def _bands(self, v, aux, terms=False):
        """Tridiagonal bands of the linearization at the iterate v: the
        Jacobian of the flux form under the policy frozen in aux.

        For alpha = 0 that is the frozen-coefficient operator L with
        L v = G(v) exactly, which makes the Newton steps a policy iteration.
        With ``terms`` each term ``residual`` computes is taken in absolute
        value, so a band that cancels to 0 keeps its terms' rounding, and
        |bands| |v| bounds the terms of each row: for alpha != 0 the flux
        slope is then max(1, alpha + 1) m^alpha / h, which bounds |Phi(s)|
        and Phi' times the rounding of s over (|v_i| + |v_{i+1}|) / h, and
        the zero-order band is |c| |v|^alpha.
        """
        s, w_rad, w_tan, m, delta, vsup = aux
        P, Q = self._flux_weights(w_rad, w_tan, terms)
        a = self.alpha
        if a == 0.0:
            # Phi(s) = s: d wr/d v_{i+1} = d wl/d v_i = 1/h
            pr, ql = P / self.h, Q / self.h
            z = -np.abs(self.zc) if terms else self.zc
        else:
            # Phi'(s) = (alpha+1)|s|^alpha with |s| floored at
            # 1e-6 (1 + sup|v|) for alpha > 0; the derivative of the floored
            # Phi for alpha < 0
            if terms:
                dphi = max(1.0, a + 1.0) * m**a
            elif a > 0.0:
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
            if terms:
                z = -np.abs(self.c_eff) * np.abs(v) ** a
            else:
                z = self.zc * np.maximum(np.abs(v), 1e-6 * (1.0 + vsup)) ** a
        diag = ql - pr + z
        upper = pr[:-1]
        upper[0] -= ql[0]
        lower = -ql[1:]
        lower[-1] += pr[-1]
        return lower, diag, upper

    def _factor(self, v, aux):
        """LU factor of the bands at v, None when they are singular; alpha = 0
        bands depend on v only through the policy (w_rad, w_tan), so their
        factor is cached in the workspace and keyed by it."""
        ws = self.ws
        pattern = np.concatenate(aux[1:3]).tobytes() if self.alpha == 0.0 else None
        if pattern is None or ws.pattern != pattern:
            try:
                ws.factor = _TriFactor(*self._bands(v, aux))
            except np.linalg.LinAlgError:
                return None
            ws.pattern = pattern
        self.last_bands = ws.factor.bands
        return ws.factor

    # -- solver -------------------------------------------------------------

    def solve(self, g, v, opts, res=None, aux=None):
        """Backtracked Newton steps from v until the residual drops below
        opts.tol, at most opts.max_iter of them; ``res``/``aux`` may carry a
        residual already evaluated at v.

        Step acceptance uses the Euclidean residual norm as merit: it
        tolerates the single-node flips the degenerate gradient factor
        produces, and since sup <= l2 the sup-norm convergence test is only
        taken earlier.  Every Newton step is du = -L^-1 residual with the
        factor of the bands at the iterate (``_factor``), which serve as the
        bands of the iterate; for alpha = 0 that factor is cached per
        policy.

        A rejected Newton step du from an iterate above its floor is
        backtracked (Dennis & Schnabel 1996, sec. 6.3): the points
        v + 2^-k du, k = 1, 2, ..., each cost one residual and no solve, and
        the first that lowers the merit is accepted.  Where the bands are the
        exact Jacobian J, du = -J^-1 res is a descent direction of the merit
        (its derivative along du is -|res|), so a short enough point lowers
        it; at the Pucci and gradient-floor kinks, and where the bands floor
        |s| or |v|, it need not.  Once 2^-k sup|du| <= eps (1 + sup|v|), the
        points no longer move v beyond its rounding, and the solve ends.

        Returns (v, res, aux, rs, bands, iterations, rejected, converged,
        bound_violation): bands those of the returned v if built (else
        None), iterations the accepted Newton steps, rejected the rejected
        Newton steps and backtracked points.  Also stops on a step rejected
        from an iterate whose residual is at its floor, on singular bands,
        or on an alpha != 0 iterate escaping past U_max.  alpha = 0 iterates
        are not tested against U_max: the stencil is monotone, so every
        alpha = 0 step solves a linear problem frozen at a policy, which the
        barrier of ``solve_neumann`` bounds, or below both thresholds the
        nonnegative inverse of the M-matrix -L.  The best iterate seen is
        returned.
        """
        if self.alpha > 0.0 and not v.any():
            # the Jacobian is ~0 at u = 0: start from c |u|^alpha u = g, with
            # c capped at -1 where c + lambda >= -1 (it may vanish below both
            # thresholds, ``eigen.solve_general``)
            c = np.minimum(self.c_eff, -1.0)
            v = signed_power(g / c, -self.alpha / (self.alpha + 1.0))
            res = None
        if res is None or aux is None:
            res, aux = self.residual(g, v)
        rs = _supabs(res)
        steps = rejected = 0
        bound_violation = False
        merit = math.sqrt(res.dot(res))
        best = (v, res, aux, rs)
        bands = None
        while steps < opts.max_iter and rs > opts.tol:
            if bands is None:
                # a new iterate: its Newton step
                if self.alpha != 0.0 and _supabs(v) > opts.U_max:
                    bound_violation = True
                    break
                factor = self._factor(v, aux)
                if factor is None:
                    break
                bands = factor.bands
                du = factor.solve(res)
                du *= -1.0
                size = None
            v_new = v + du
            res_new, aux_new = self.residual(g, v_new)
            merit_new = math.sqrt(res_new.dot(res_new))
            # non-finite v_new propagates into merit_new, so one test covers both
            if not (merit_new < merit):
                rejected += 1
                if size is None:
                    # the first rejection from this iterate
                    if rs <= _floor(v, bands):
                        break
                    size, limit = _supabs(du), np.finfo(float).eps * (1.0 + _supabs(v))
                # the next point along the rejected Newton step
                du *= 0.5
                size *= 0.5
                # a NaN or inf step never halves to the limit
                if not limit < size < math.inf:
                    break
                continue
            v, res, aux, merit = v_new, res_new, aux_new, merit_new
            bands = None
            rs = _supabs(res)
            if rs < best[3]:
                best = (v, res, aux, rs)
            steps += 1
        if rs > best[3]:
            v, res, aux, rs = best
            bands = None
        return v, res, aux, rs, bands, steps, rejected, rs <= opts.tol, bound_violation


def _initial_array(opts, n):
    if opts.initial is None:
        return np.zeros(n)
    if isinstance(opts.initial, GridFunction):
        values = opts.initial.values.copy()
    else:
        values = np.asarray(opts.initial, dtype=float).copy()
    if values.shape != (n,):
        raise ValueError(
            f"SolveOptions.initial must have shape ({n},) on this grid, got {values.shape}"
        )
    return values


def _solve_report(driver, g, v0, opts) -> SolveReport:
    """Run ``driver.solve`` from v0 and report the outcome, with the
    residual floor at the returned iterate."""
    v, _, aux, rs, bands, iterations, rejected, converged, bound_violation = (
        driver.solve(g, v0, opts)
    )
    return SolveReport(
        solution=GridFunction(driver.grid, v),
        residual_sup=rs,
        iterations=iterations,
        rejected=rejected,
        converged=converged,
        bound_violation=bound_violation and not converged,
        residual_floor=_floor(v, bands or driver._bands(v, aux)),
    )


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
    b, c = sample_profile(coeff.b, r), sample_profile(coeff.c, r)
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
    (|g|_inf / c0)^(1/(alpha+1)) + tol^(1/(alpha+1)) and the residual floor
    at the returned iterate recorded; non-convergence is reported, never
    silently accepted.

    Raises
    ------
    PreconditionError if c + lambda >= 0 somewhere on the grid.
    """
    opts = opts if opts is not None else SolveOptions()
    op.validate_profiles(grid.nodes)
    r = grid.nodes
    b, c = sample_profile(coeff.b, r), sample_profile(coeff.c, r)
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
    report = _solve_report(driver, g, _initial_array(opts, grid.n), opts)
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
    nonincreasing nonpositive iterates.  The shift is the smallest
    admissible one, s = max(max c + 1, -lambda) (module docstring): each
    inner problem has zero-order coefficient c - s <= -1, so its solve
    precondition holds by construction, and the factor lambda + s >= 0 keeps
    the iteration order-preserving.  Inner tolerances are tol/10, scaled by
    a bound on the inner right-hand side so they stay meaningful when the
    iterates grow large, and raised to ``_floor`` at u of the bands of the
    run's last Newton step; an inner solve that stops at its own ``_floor``
    is accepted.
    """
    opts = opts if opts is not None else SolveOptions()
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    op.validate_profiles(grid.nodes)
    r = grid.nodes
    b, c = sample_profile(coeff.b, r), sample_profile(coeff.c, r)
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

    # the smallest admissible shift (module docstring)
    shift = max(float(np.max(c)) + 1.0, -lam)
    factor = lam + shift
    g_sup = float(np.max(np.abs(g)))
    driver = _Driver(op, grid, b, c - shift, opts.workspace)
    inner = SolveOptions(max_iter=opts.inner_max_iter)
    u = np.zeros(grid.n)
    sup = unit = 0.0
    res = aux = g_prev = seen = None
    sup_norms = [0.0]
    min_values = [0.0]
    flags = []
    verdict = Verdict.MAX_ITER
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
        # _floor at u of the bands of this run's last Newton step (0 before
        # it; never an earlier run's, whose iterate may have escaped far),
        # ||L||_inf taken again only when they change (per policy at alpha = 0)
        if driver.last_bands is not seen:
            seen = driver.last_bands
            unit = float(_rounding(seen).max())
        inner.tol = max(opts.tol / 10.0 * g_scale, unit * (1.0 + sup))
        inner.U_max = 10.0 * g_scale ** (1.0 / (op.alpha + 1.0)) + 10.0
        u_new, res, aux, rs, bands, _, _, ok, _ = driver.solve(g_inner, u, inner, res, aux)
        if not ok and rs > _floor(u_new, bands or driver._bands(u_new, aux)):
            raise InnerSolveError(
                step,
                f"residual_sup={rs:.3e} above tolerance {inner.tol:.3e}",
            )
        dvec = u_new - u
        dmin = float(dvec.min())
        dmax = float(dvec.max())
        slack = 10.0 * inner.tol
        if direction == "up":
            flags.append(dmin >= -slack)
        else:
            flags.append(dmax <= slack)
        u = u_new
        sup = _supabs(u)
        sup_norms.append(sup)
        min_values.append(float(u.min()))
        if sup > opts.U_max:
            verdict = Verdict.UNBOUNDED
            break
        if max(dmax, -dmin) < opts.tol:
            verdict = Verdict.CONVERGED
            break

    return IterationReport(
        sup_norms=sup_norms,
        min_values=min_values,
        monotone_flags=flags,
        final=GridFunction(grid, u),
        verdict=verdict,
    )
