"""Bracketing of the two principal eigenvalues and eigenfunction extraction.

The upper principal eigenvalue is the supremum of shifts lambda admitting a
positive bounded supersolution of G + lambda v^{alpha+1} <= 0 under the
Neumann condition; below it the maximum principle holds, at and above it the
monotone iteration with negative data becomes unbounded.  That dichotomy is
what the bisection probes.  The mirrored eigenvalue (negative
eigenfunctions) is the upper one of the reflected operator -F(-p, -X).

For alpha = 0 with a monotone stencil (nonnegative off-diagonals under every
row-wise policy, which the flux form has unless drift breaks them) a probe
is decided from one positive grid function phi.  The discrete Pucci-
operator is the row-wise minimum, and Pucci+ the maximum, of linear policy
operators whose negatives are M-matrices.  So with
rho_i = -G(phi)_i / phi_i, phi is a strict supersolution for every
lambda < min rho, which bounds the monotone iterates, and a strict
subsolution for every lambda > max rho, which rules out a bounded limit of
the iteration: the discrete Collatz-Wielandt bracket
min rho <= lambda_bar_h <= max rho.  phi comes from Howard policy
iteration, one shifted inverse-iteration solve per round.  A probe within a
rounding guard of that bracket, every probe for alpha != 0, and every probe
of a stencil that drift makes non-monotone is still classified by running
``monotone_iteration`` with g = -1 (g = +1, decreasing iterates, for the
mirrored eigenvalue) and watching whether the iterates settle or blow past
the threshold.

Both eigenvalues lie in [-|c|_inf, |c|_inf]: the constant 1 is a
supersolution at lambda = -|c|_inf, and above |c|_inf the positive/negative
constants defeat the maximum principle, which pins the initial bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid import GridFunction, RadialGrid
from .operators import CoefficientField, EllipticOperator, sample_profile
# unused here, but the benchmark's tracer wraps eigenball.eigen.signed_power
from .operators import signed_power  # noqa: F401
from .solver import (
    PreconditionError,
    SolveOptions,
    SolveReport,
    SolveWorkspace,
    Verdict,
    _Driver,
    _rounding_floor,
    _shifted_iterates,
    _TriFactor,
    monotone_iteration,
    residual,
)

__all__ = [
    "EigenOptions",
    "EigenEstimate",
    "BracketError",
    "EigenResidualError",
    "lambda_up",
    "lambda_down",
    "eigenfunction_up",
    "solve_general",
]

# Irrational interval split so the probe sequence cannot land exactly on
# symmetric special values (e.g. lambda = 0 for c == 0).
_SPLIT = 2.0 - (1.0 + math.sqrt(5.0)) / 2.0

# Howard rounds of the Collatz-Wielandt eigenpair stop once the bracket is
# this narrow relative to 1 + |c|_inf (or at the rounding guard), or after
# this many rounds; policy iteration settles in a handful
_CW_REL_WIDTH = 1e-9
_CW_MAX_ROUNDS = 50


class BracketError(RuntimeError):
    """A certified endpoint behaved contrary to the theory (configuration
    error) or a probe was ambiguous within the iteration budget."""


class EigenResidualError(RuntimeError):
    """Achieved eigen-equation residual exceeds the requested tolerance."""

    def __init__(self, achieved: float, tol: float):
        self.achieved = achieved
        self.tol = tol
        super().__init__(
            f"eigenfunction residual {achieved:.3e} exceeds tolerance {tol:.3e} "
            f"(bracket too wide)"
        )


@dataclass
class EigenOptions:
    """Options for the eigenvalue bisection.

    ``bracket_width`` defaults to 1e-3 (1 + |c|_inf).  ``g_scale`` is the
    magnitude of the constant data used in the probes (the bracket is
    invariant under it, by homogeneity).  ``eig_residual_tol`` bounds the
    reported eigen-equation residual at the bracket midpoint and defaults
    to 20x the bracket width.
    """

    bracket_width: Optional[float] = None
    g_scale: float = 1.0
    eig_residual_tol: Optional[float] = None
    tol: float = 1e-9
    max_outer: int = 400_000
    inner_max_iter: int = 20000
    U_max: float = 1e6

    def resolved_width(self, c_inf: float) -> float:
        if self.bracket_width is not None:
            if not self.bracket_width > 0:
                raise ValueError("bracket_width must be > 0")
            return self.bracket_width
        return 1e-3 * (1.0 + c_inf)

    def resolved_residual_tol(self, width: float) -> float:
        if self.eig_residual_tol is not None:
            return self.eig_residual_tol
        return 20.0 * width

    def iteration_options(self, workspace: SolveWorkspace) -> SolveOptions:
        return SolveOptions(
            tol=self.tol,
            max_iter=self.max_outer,
            U_max=self.U_max,
            inner_max_iter=self.inner_max_iter,
            workspace=workspace,
        )


@dataclass
class EigenEstimate:
    """Bisection bracket plus the normalized eigenfunction.

    ``lambda_lo`` is certified convergent and ``lambda_hi`` certified
    blow-up.  ``probes`` holds one ``(lambda, verdict, how)`` per probe:
    ``how`` is ``"monotone"`` for a direct monotone-iteration run, which can
    be replayed, and ``"cw"`` for a verdict read off the Collatz-Wielandt
    bracket ``cw_bracket`` = (min rho, max rho) of a positive eigenvector
    phi (see the module docstring).  ``cw_bracket`` is ``None`` when that
    bracket was not used (alpha != 0 or a stencil that drift makes
    non-monotone); the eigenfunction is then the normalized final iterate
    at ``lambda_lo``, otherwise phi.  It has sup-norm exactly 1 and a
    strict sign.
    """

    lambda_lo: float
    lambda_hi: float
    eigenfunction: GridFunction
    residual_sup: float
    sign: str
    probes: list
    cw_bracket: Optional[tuple] = None

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lambda_lo + self.lambda_hi)

    @property
    def width(self) -> float:
        return self.lambda_hi - self.lambda_lo

    def summary(self):
        cw_lo, cw_hi = self.cw_bracket if self.cw_bracket is not None else (None, None)
        return {
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
            "lambda_mid": self.midpoint,
            "residual_sup": self.residual_sup,
            "sign": self.sign,
            "cw_lo": cw_lo,
            "cw_hi": cw_hi,
        }


@dataclass(frozen=True)
class _CWBracket:
    """Collatz-Wielandt bracket [lo, hi] of the positive eigenvector phi
    (sup-norm 1), and the rounding guard around it."""

    lo: float
    hi: float
    guard: float
    phi: np.ndarray


def _monotone_stencil(driver: _Driver) -> bool:
    """Whether the bands of every row-wise policy have nonnegative
    off-diagonals (alpha = 0), the discrete comparison principle the
    Collatz-Wielandt bracket rests on: P >= 0 >= Q on the interior rows for
    every pair of radial and tangential weights, with P and Q the
    coefficients of the fluxes w_{i+1/2} and w_{i-1/2}.  The end rows hold
    by construction.  Without drift the interior rows hold too, thanks to
    the one-sided rows near the axis.  The drift adds b/2 to P and Q and
    can break them, for instance wherever h b > 2 min w_rad."""
    if driver.sign_weights:
        pairs = itertools.product(driver.policy, repeat=2)
    else:
        pairs = [(driver.w_rad, driver.w_tan)]
    for w_rad, w_tan in pairs:
        P, Q = driver._flux_weights(w_rad, w_tan)
        if P[1:-1].min() < 0.0 or Q[1:-1].max() > 0.0:
            return False
    return True


def _collatz_wielandt(op, coeff, grid, direction) -> Optional[_CWBracket]:
    """Positive eigenvector of the alpha = 0 operator and its bracket.

    Howard policy iteration: each round freezes the Pucci sign pattern of
    phi, whose bands L reproduce G(phi) exactly, and takes one inverse
    iteration step phi <- (-L - sigma)^{-1} phi.  The shift sigma sits
    below min rho <= the policy's Perron root, so -L - sigma is a
    nonsingular M-matrix and the step keeps phi positive.  Returns ``None``
    for alpha != 0, a stencil that drift makes non-monotone, or a step that
    fails; the mirrored eigenvalue uses the reflected operator.
    """
    if op.alpha != 0.0:
        return None
    if direction == "down":
        op = op.reflect()
    b, c, _ = coeff.sample(grid.nodes)
    driver = _Driver(op, grid, b, c)
    if not _monotone_stencil(driver):
        return None
    c_inf = float(np.max(np.abs(c)))
    floor = _rounding_floor(op, grid, c_inf)
    phi = np.ones(grid.n)
    rounds = 0
    while True:
        res, aux = driver.residual(0.0, phi)
        rho = -res / phi
        lo, hi = float(rho.min()), float(rho.max())
        # rho_i carries the stencil's rounding error divided by phi_i
        guard = floor / float(phi.min())
        if hi - lo <= max(_CW_REL_WIDTH * (1.0 + c_inf), guard) or rounds == _CW_MAX_ROUNDS:
            return _CWBracket(lo, hi, guard, phi)
        lower, diag, upper = driver._bands(phi, aux)
        sigma = lo - (hi - lo)
        try:
            x = _TriFactor(-lower, -diag - sigma, -upper).solve(phi)
        except np.linalg.LinAlgError:
            return None
        if not x.min() > 0.0:
            return None
        phi = x / x.max()
        rounds += 1


def _classify(op, coeff, lam, g_profile, grid, opts, ws, direction, cw):
    """Verdict on a trial shift, as ``(verdict, report, how)``.

    Read off the Collatz-Wielandt bracket ``cw`` when ``lam`` lies outside
    it by more than its guard (``report`` is then ``None``); otherwise run
    the monotone iteration.
    """
    if cw is not None:
        if lam < cw.lo - cw.guard:
            return Verdict.CONVERGED, None, "cw"
        if lam > cw.hi + cw.guard:
            return Verdict.UNBOUNDED, None, "cw"
    rep = monotone_iteration(
        op,
        coeff,
        lam,
        g_profile,
        grid,
        opts.iteration_options(ws),
        direction=direction,
    )
    if rep.verdict is Verdict.MAX_ITER:
        raise BracketError(
            f"monotone iteration at lambda={lam:.9g} is ambiguous after "
            f"{opts.max_outer} steps (last sup-norm {rep.sup_norms[-1]:.3e}); "
            f"raise max_outer or widen the bracket"
        )
    return rep.verdict, rep, "monotone"


def _eigenfunction(op, coeff, grid, values, direction, lam_mid, width, opts):
    """Normalize an eigenfunction candidate to sup-norm 1, check its strict
    sign and its eigen-equation residual at ``lam_mid``; returns
    ``(phi, residual_sup)``."""
    sup = float(np.max(np.abs(values)))
    if sup == 0.0:
        raise BracketError("degenerate eigenfunction candidate (identically zero)")
    phi = GridFunction(grid, values / sup)
    if direction == "up":
        if phi.min() <= 0:
            raise BracketError("eigenfunction lost strict positivity")
    else:
        if phi.max() >= 0:
            raise BracketError("eigenfunction lost strict negativity")
    res_sup = residual(op, coeff, lam_mid, 0.0, phi).sup_norm()
    res_tol = opts.resolved_residual_tol(width)
    if res_sup > res_tol:
        raise EigenResidualError(res_sup, res_tol)
    return phi, res_sup


def _bisect(op, coeff, grid, opts, direction: str):
    sign = "positive" if direction == "up" else "negative"
    c_vals = sample_profile(coeff.c, grid.nodes)
    c_inf = float(np.max(np.abs(c_vals)))
    width = opts.resolved_width(c_inf)
    g_const = -opts.g_scale if direction == "up" else opts.g_scale
    g_vals = np.full(grid.n, float(g_const))
    ws = SolveWorkspace()
    cw = _collatz_wielandt(op, coeff, grid, direction)
    probes = []

    def probe(lam, bracket):
        verdict, rep, how = _classify(op, coeff, lam, g_vals, grid, opts, ws, direction, bracket)
        probes.append((lam, verdict.value, how))
        return verdict, rep

    # the envelope ends are always real runs: they check the configuration
    lo, hi = -(c_inf + 1.0), c_inf + 1.0
    verdict, rep_lo = probe(lo, None)
    if verdict is not Verdict.CONVERGED:
        raise BracketError(
            f"iteration at the initial lower end lambda={lo:.9g} did not "
            f"converge; -|c|_inf always admits the constant supersolution, so "
            f"this is a configuration error"
        )
    verdict, _ = probe(hi, None)
    if verdict is not Verdict.UNBOUNDED:
        raise BracketError(
            f"iteration at lambda={hi:.9g} > |c|_inf converged; the eigenvalue "
            f"is bounded by |c|_inf, so this is a configuration error"
        )

    while hi - lo > width:
        mid = lo + _SPLIT * (hi - lo)
        verdict, rep = probe(mid, cw)
        if verdict is Verdict.CONVERGED:
            lo, rep_lo = mid, rep
        else:
            hi = mid

    if cw is None:
        values = rep_lo.final.values
    else:
        values = cw.phi if direction == "up" else -cw.phi
    phi, res_sup = _eigenfunction(op, coeff, grid, values, direction, 0.5 * (lo + hi), width, opts)
    return EigenEstimate(
        lambda_lo=lo,
        lambda_hi=hi,
        eigenfunction=phi,
        residual_sup=res_sup,
        sign=sign,
        probes=probes,
        cw_bracket=None if cw is None else (cw.lo, cw.hi),
    )


def lambda_up(
    op: EllipticOperator,
    coeff: CoefficientField,
    grid: RadialGrid,
    opts: Optional[EigenOptions] = None,
) -> EigenEstimate:
    """Bracket the upper principal eigenvalue (positive eigenfunction).

    Bisection on [-|c|_inf - 1, |c|_inf + 1].  The two ends are checked by
    monotone-iteration runs with g = -1.  For alpha = 0 with a monotone
    stencil, each trial shift outside the Collatz-Wielandt bracket
    [min rho, max rho] of the positive eigenvector phi (widened by a
    rounding guard) is decided from that bracket: phi is a strict
    supersolution below it and a subsolution above it, because Pucci- is
    the row-wise minimum and Pucci+ the maximum over policies of M-matrices.
    Any other trial shift is classified by whether the monotone iteration
    stays bounded.  The returned eigenfunction is phi, or without the
    bracket the final iterate at the certified lower end, normalized;
    ``residual_sup`` is its eigen-equation residual at the bracket
    midpoint.
    """
    return _bisect(op, coeff, grid, opts or EigenOptions(), "up")


def lambda_down(
    op: EllipticOperator,
    coeff: CoefficientField,
    grid: RadialGrid,
    opts: Optional[EigenOptions] = None,
) -> EigenEstimate:
    """Bracket the lower principal eigenvalue (negative eigenfunction).

    Mirror of ``lambda_up``: monotone probes run with g = +1, producing
    negative decreasing iterates, and the Collatz-Wielandt bracket is that
    of the reflected operator -F(-p, -X), which swaps the two Pucci kinds,
    with its eigenvector negated.
    """
    return _bisect(op, coeff, grid, opts or EigenOptions(), "down")


def eigenfunction_up(
    op: EllipticOperator,
    coeff: CoefficientField,
    lambda_bar_est: float,
    grid: RadialGrid,
    opts: Optional[EigenOptions] = None,
) -> GridFunction:
    """Normalized positive eigenfunction from a certified convergent shift.

    ``lambda_bar_est`` (the certified lower bracket end) is classified as a
    bisection probe is, and must be convergent.  The eigenfunction is the
    Collatz-Wielandt eigenvector when alpha = 0 and the stencil is
    monotone, else the final iterate of the monotone iteration with
    g = -1 at ``lambda_bar_est``, normalized to sup-norm 1.  Its residual at
    the bracket midpoint is checked against ``opts.eig_residual_tol``; an
    excessive residual is reported via ``EigenResidualError`` rather than
    silently accepted.
    """
    opts = opts or EigenOptions()
    c_vals = sample_profile(coeff.c, grid.nodes)
    c_inf = float(np.max(np.abs(c_vals)))
    width = opts.resolved_width(c_inf)
    g_vals = np.full(grid.n, -opts.g_scale)
    cw = _collatz_wielandt(op, coeff, grid, "up")
    verdict, rep, _ = _classify(
        op, coeff, lambda_bar_est, g_vals, grid, opts, SolveWorkspace(), "up", cw
    )
    if verdict is not Verdict.CONVERGED:
        raise BracketError(
            f"lambda={lambda_bar_est:.9g} is not a certified convergent shift"
        )
    values = rep.final.values if cw is None else cw.phi
    phi, _ = _eigenfunction(
        op, coeff, grid, values, "up", lambda_bar_est + 0.5 * width, width, opts
    )
    return phi


def solve_general(
    op: EllipticOperator,
    coeff: CoefficientField,
    lam: float,
    g_profile,
    grid: RadialGrid,
    opts: Optional[SolveOptions] = None,
) -> SolveReport:
    """Solve the Neumann problem for sign-changing data below both thresholds.

    Requires lambda below the certified lower ends of both eigenvalue
    brackets (the caller's contract).  Builds the negative solution u0 for
    data |g|_inf and the positive solution v0 for data -|g|_inf, then runs
    the shifted fixed-point loop of ``monotone_iteration``
    (``solver._shifted_iterates``, same shift and inner tolerances) started
    at u0.  Every iterate must stay inside the sandwich
    [u0 - slack, v0 + slack]; an escape is reported as a discrete sandwich
    violation (``sandwich_ok=False``), not silently accepted.  The loop stops
    once the full residual is within ``opts.tol`` or an iterate changes by
    less than tol/100.
    """
    opts = opts if opts is not None else SolveOptions()
    r = grid.nodes
    b, c, _ = coeff.sample(r)
    g = sample_profile(g_profile if g_profile is not None else coeff.g, r)
    g_sup = float(np.max(np.abs(g)))

    mono_opts = replace(opts, workspace=None)
    rep_v0 = monotone_iteration(
        op, coeff, lam, np.full(grid.n, -g_sup), grid, mono_opts, direction="up"
    )
    if rep_v0.verdict is not Verdict.CONVERGED:
        raise PreconditionError(
            f"solve_general: positive envelope did not converge at "
            f"lambda={lam:.9g} (verdict {rep_v0.verdict.value}); lambda must "
            f"lie below the upper-eigenvalue bracket"
        )
    rep_u0 = monotone_iteration(
        op, coeff, lam, np.full(grid.n, g_sup), grid, mono_opts, direction="down"
    )
    if rep_u0.verdict is not Verdict.CONVERGED:
        raise PreconditionError(
            f"solve_general: negative envelope did not converge at "
            f"lambda={lam:.9g} (verdict {rep_u0.verdict.value}); lambda must "
            f"lie below the lower-eigenvalue bracket"
        )
    v0 = rep_v0.final.values
    u0 = rep_u0.final.values

    full_driver = _Driver(op, grid, b, c + lam)
    slack = max(100.0 * opts.tol, 1e-12 * (1.0 + g_sup))

    u = u0
    sandwich_ok = True
    rs = math.inf
    iterations = 0
    for u_new, _, _ in _shifted_iterates(op, grid, b, c, lam, g, u0, opts, None):
        change = float(np.max(np.abs(u_new - u)))
        u = u_new
        iterations += 1
        if np.min(u - u0) < -slack or np.max(u - v0) > slack:
            sandwich_ok = False
            break
        res, _ = full_driver.residual(g, u)
        rs = float(np.max(np.abs(res)))
        if rs <= opts.tol:
            break
        if change < opts.tol / 100.0:
            break

    converged = rs <= opts.tol and sandwich_ok
    return SolveReport(
        solution=GridFunction(grid, u),
        residual_sup=rs,
        iterations=iterations,
        dt=math.inf,
        converged=converged,
        bound_violation=False,
        sandwich_ok=sandwich_ok,
    )
