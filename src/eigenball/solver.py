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
(``_Driver.floor``), or when LAPACK reports L singular.  ``eigen.solve_general``
runs the same solve below both principal eigenvalues, where c + lambda may
change sign but, for alpha = 0, every frozen-policy -L is still a
nonsingular M-matrix.  Every entry point, here and in ``eigen``, is set up
by ``_problem``, which raises ``ValueError`` for operator profiles outside
the ellipticity class, as the CLI exits 3.

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
(direction="down") they decrease.  Its inner solves stop at the floor
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
most |c|_inf + 1, with equality at lambda = -|c|_inf - 1.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
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

    ``tol`` (> 0) is an absolute sup-norm residual (solve) or sup-norm
    change (iteration) tolerance, ``max_iter`` (>= 1) bounds the steps and
    ``U_max`` (> 0) the iterates.  ``initial`` is the starting iterate of
    ``solve_neumann`` (zeros by default), a node array or GridFunction on
    its grid; ``monotone_iteration`` and ``solve_general`` start from their
    own iterates and ignore it.  ``workspace`` is ignored, with a
    ``DeprecationWarning`` when given: each solve caches its own factors.
    """

    tol: float = 1e-9
    max_iter: int = 20000
    U_max: float = 1e6
    initial: object = None
    workspace: Optional["SolveWorkspace"] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not self.U_max > 0:
            raise ValueError(f"U_max must be > 0, got {self.U_max!r}")
        if self.workspace is not None:
            warnings.warn(
                "SolveOptions.workspace is ignored: each solve caches its own factors",
                DeprecationWarning,
                stacklevel=3,
            )


class SolveWorkspace:
    """Ignored by every solve (``SolveOptions.workspace``)."""


@dataclass
class SolveReport:
    """Outcome of one Neumann solve.

    ``iterations`` counts the accepted Newton steps and ``rejected`` the
    rejected Newton steps and backtracked points (``_Driver.solve``), for
    ``solve_neumann`` and ``solve_general`` alike; each costs one residual
    evaluation, and only a Newton step makes a tridiagonal solve.
    ``residual_floor`` is the smallest residual floating point resolves at
    the returned solution (``_Driver.floor``); a solve that stops there
    because ``tol`` lies below it reports ``converged`` False.
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

    Keeps what no iterate changes: the node samples ``b`` and ``c_eff``
    (c + lambda), the zero-order band factor ``zc``, the weights as
    ``EllipticOperator.weight_table`` gives them (``policy``, the Pucci
    weights for an eigenvalue >= 0 and < 0, or None and the weights
    ``w_rad``, ``w_tan``), the tangential and drift flux coefficients ``tr``,
    ``tl``, ``br``, ``bl``; and the factor of the last bands with its key
    ``pattern`` (``_factor``).  All heavy per-step work (residual, bands,
    factor) happens here so the iteration layers above stay thin.
    """

    __slots__ = (
        "op", "grid", "b", "c_eff", "zc", "alpha", "n", "h", "w_rad", "w_tan",
        "policy", "tr", "tl", "br", "bl", "pattern", "factor",
    )

    def __init__(self, op, grid, b, c_eff):
        self.op = op
        self.grid = grid
        self.b = b if (b is not None and np.any(b)) else None
        self.c_eff = c_eff
        self.pattern = self.factor = None
        self.alpha = op.alpha
        self.n = grid.n
        self.h = h = grid.h
        r = grid.nodes
        # zero-order band factor (alpha + 1) c; exactly c_eff for alpha = 0
        self.zc = (self.alpha + 1.0) * c_eff
        pos, neg = op.weight_table(r)
        self.policy = None if pos is neg else (pos[0], neg[0])
        self.w_rad, self.w_tan = pos
        # the least weights and the largest tangential one, over both signs
        rad_lo, tan_lo = map(np.minimum, pos, neg)
        tan_hi = np.maximum(pos[1], neg[1])
        # the tangential eigenvalue (times N-1) of row i is
        # tr w_{i+1/2} + tl w_{i-1/2}, one-sided in the rows where the mean
        # would weigh u_{i-1} negatively under some policy
        nm1 = grid.N_dim - 1
        self.tr = np.zeros(self.n)
        self.tr[0] = nm1 / h
        self.tr[1:-1] = (0.5 * nm1) * (1.0 / r[1:-1])
        self.tl = self.tr.copy()
        self.tl[0] = -self.tr[0]
        rows = 2.0 * np.arange(self.n) * rad_lo < (self.alpha + 1.0) * nm1 * tan_hi
        rows[[0, -1]] = False
        self.tr[rows] = nm1 / (r[rows] + 0.5 * h)
        self.tl[rows] = 0.0
        # the drift of row i is br w_{i+1/2} + bl w_{i-1/2}: centred, b/2
        # each, where that keeps P >= 0 >= Q under every policy (P is
        # smallest at the least weights, Q largest at the least radial and
        # the largest tangential one), upwind elsewhere; the end rows stay
        # centred, where the odd ghost flux cancels it
        self.br = self.bl = 0.0
        if self.b is not None:
            P, _ = self._flux_weights(rad_lo, tan_lo)
            _, Q = self._flux_weights(rad_lo, tan_hi)
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
        w_rad, w_tan = self.w_rad, self.w_tan
        if self.policy is not None:
            lo, hi = self.policy
            w_rad = np.where(rad >= 0, lo, hi)
            w_tan = np.where(tan >= 0, lo, hi)
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
            # Phi' of the floored flux Phi(s) = m^alpha s: m^alpha (1 +
            # alpha q / m), q = |s| above delta and s^2 / delta below, so
            # (alpha+1)|s|^alpha above the floor, for either sign of alpha
            if terms:
                dphi = max(1.0, a + 1.0) * m**a
            else:
                abs_s = np.abs(s)
                q = np.where(abs_s >= delta, abs_s, s * s / delta)
                dphi = m**a * (1.0 + a * q / m)
            dphi /= self.h
            # d wr/d v_{i+1} and d wl/d v_i, ghost fluxes mirrored at the ends
            pr = P * np.append(dphi, dphi[-1])
            ql = Q * np.concatenate(((dphi[0],), dphi))
            # zero-order Jacobian (alpha+1) c |v|^alpha.  At v_i = 0 it is
            # infinite for alpha < 0 and would pin v_i there, so |v_i| is capped
            # at 1e-6 (1 + sup|v|): that changes only the step, not the residual
            # judging it, so a sign-changing iterate may still leave or cross 0
            if terms:
                z = -np.abs(self.c_eff) * np.abs(v) ** a
            else:
                z = self.zc * np.where(v != 0.0, np.abs(v), 1e-6 * (1.0 + vsup)) ** a
        diag = ql - pr + z
        upper = pr[:-1]
        upper[0] -= ql[0]
        lower = -ql[1:]
        lower[-1] += pr[-1]
        return lower, diag, upper

    def _factor(self, v, aux):
        """LU factor of the bands at v, None when they are singular; alpha = 0
        bands change only with the policy (w_rad, w_tan), so their factor is
        kept, keyed by it (by a constant where there is no policy)."""
        pattern = None
        if self.alpha == 0.0:
            pattern = b"" if self.policy is None else np.concatenate(aux[1:3]).tobytes()
        if pattern is None or self.pattern != pattern:
            try:
                self.factor = _TriFactor(*self._bands(v, aux))
            except np.linalg.LinAlgError:
                return None
            self.pattern = pattern
        return self.factor

    def floor(self, v, aux, bands=None) -> float:
        """ROUNDOFF_SAFETY eps ||L||_inf (1 + sup|v|), the smallest residual
        floating point resolves at the iterate v with bands L (those of aux
        when None); ||L||_inf is the largest absolute row sum of L."""
        return float(_rounding(bands or self._bands(v, aux)).max()) * (1.0 + _supabs(v))

    def shifted(self, lam=None, op=None):
        """This driver's b for c_eff + lam (c_eff when lam is None) and op."""
        c_eff = self.c_eff if lam is None else self.c_eff + lam
        return _Driver(op or self.op, self.grid, self.b, c_eff)

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
        it; at the Pucci and gradient-floor kinks, and at v_i = 0 for
        alpha != 0, it need not.  Once 2^-k sup|du| <= eps (1 + sup|v|), the
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
                    if rs <= self.floor(v, aux, bands):
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


def _initial_array(opts, grid):
    initial = opts.initial
    if initial is None:
        return np.zeros(grid.n)
    if isinstance(initial, GridFunction):
        if initial.grid != grid:
            raise ValueError(f"SolveOptions.initial is on {initial.grid}, not on the solve's {grid}")
        return initial.values.copy()
    values = np.asarray(initial, dtype=float).copy()
    if values.shape != (grid.n,):
        raise ValueError(
            f"SolveOptions.initial must have shape ({grid.n},) on this grid, got {values.shape}"
        )
    return values


def _problem(op, coeff, grid, lam=None, g_profile=None):
    """(driver, g) of every solve and estimate: op's profiles checked on the
    grid, b, c and g (``coeff.g`` when g_profile is None) sampled at its
    nodes, and the ``_Driver`` for c + lam (c itself when lam is None)."""
    r = grid.nodes
    op.validate_profiles(r)
    b, c = sample_profile(coeff.b, r), sample_profile(coeff.c, r)
    g = sample_profile(g_profile if g_profile is not None else coeff.g, r)
    return _Driver(op, grid, b, c if lam is None else c + lam), g


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
        residual_floor=driver.floor(v, aux, bands),
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
    driver, g = _problem(op, coeff, u.grid, lam, g_profile)
    return GridFunction(u.grid, driver.residual(g, u.values)[0])


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
    driver, g = _problem(op, coeff, grid, lam, g_profile)
    c_eff = driver.c_eff
    bad = np.flatnonzero(c_eff >= 0)
    if bad.size:
        shown = ", ".join(f"r={grid.nodes[i]:.6g} (c+lambda={c_eff[i]:.6g})" for i in bad[:8])
        more = "" if bad.size <= 8 else f" and {bad.size - 8} more"
        raise PreconditionError(
            f"solve_neumann requires c + lambda < 0 on all nodes; "
            f"violated at {bad.size} node(s): {shown}{more}"
        )
    c0 = float(-np.max(c_eff))
    report = _solve_report(driver, g, _initial_array(opts, grid), opts)
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
    iterates grow large, and raised to ``_Driver.floor`` at u of the bands
    of the run's last Newton step; an inner solve that stops at its own
    floor is accepted.
    """
    opts = opts if opts is not None else SolveOptions()
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    base, g = _problem(op, coeff, grid, None, g_profile)
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
    shift = max(float(np.max(base.c_eff)) + 1.0, -lam)
    factor = lam + shift
    g_sup = float(np.max(np.abs(g)))
    driver = base.shifted(-shift)
    inner = SolveOptions()
    u = np.zeros(grid.n)
    sup = unit = 0.0
    res = aux = g_prev = seen = None
    sup_norms, min_values = [0.0], [0.0]
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
        # the floor at u of the bands of this run's last Newton step (0 before
        # it), ||L||_inf taken again only when the factor changes (per policy
        # at alpha = 0)
        if driver.factor is not seen:
            seen = driver.factor
            unit = float(_rounding(seen.bands).max())
        inner.tol = max(opts.tol / 10.0 * g_scale, unit * (1.0 + sup))
        inner.U_max = 10.0 * g_scale ** (1.0 / (op.alpha + 1.0)) + 10.0
        u_new, res, aux, rs, bands, _, _, ok, _ = driver.solve(g_inner, u, inner, res, aux)
        if not ok and rs > driver.floor(u_new, aux, bands):
            raise InnerSolveError(
                step,
                f"residual_sup={rs:.3e} above tolerance {inner.tol:.3e}",
            )
        dvec = u_new - u
        dmin, dmax = float(dvec.min()), float(dvec.max())
        slack = 10.0 * inner.tol
        flags.append(dmin >= -slack if direction == "up" else dmax <= slack)
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
