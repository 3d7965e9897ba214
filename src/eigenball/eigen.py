"""Bracketing of the two principal eigenvalues and eigenfunction extraction.

The upper principal eigenvalue is the supremum of shifts lambda admitting a
positive bounded supersolution of G + lambda v^{alpha+1} <= 0 under the
Neumann condition (Berestycki, Nirenberg & Varadhan 1994): below it the
maximum principle holds, and at and above it the monotone iteration with
data g = -1 (``solver.monotone_iteration``) becomes unbounded.  The
mirrored eigenvalue (negative eigenfunctions) is the upper one of the
reflected operator -F(-p, -X).

Every estimate reads that dichotomy off one positive grid function phi.
The discrete G of ``solver._Driver`` is monotone in its off-diagonal
arguments: every Pucci policy weighs w_{i+1/2} nonnegatively and w_{i-1/2}
nonpositively (the one-sided and upwind rows keep this), the floored flux
m(s)^alpha s increases with s for alpha > -1, and Pucci-/+ is the row-wise
min/max over policies.  Its gradient floor is proportional to sup|v|, so G
is positively homogeneous of degree alpha + 1.  With
rho_i = -G(phi)_i / phi_i^{alpha+1}, for lambda < min rho every t phi is a
strict supersolution, G(t phi) + lambda (t phi)^{alpha+1} =
t^{alpha+1} (lambda - rho) phi^{alpha+1} < 0, which for t large bounds the
iterates.  For lambda > max rho every t phi is a strict subsolution, and a
bounded limit u > 0 would solve G(u) + lambda u^{alpha+1} = -1: the largest
t phi <= u touches u at some node i, where monotonicity gives
0 < G(t phi)_i + lambda (t phi_i)^{alpha+1} <= -1.  So
min rho <= lambda_bar_h <= max rho, the Collatz-Wielandt bracket.

phi comes from shifted inverse iteration: psi solves
-G(psi) - sigma psi^{alpha+1} = phi^{alpha+1}, phi <- psi / max psi, with
sigma = min rho - max((max rho - min rho)/100, 2 guard) below the exact
min rho, so the maximum principle keeps psi > 0.  For alpha = 0 that is one
tridiagonal solve with the bands of phi's policy, which reproduce G(phi)
exactly (Howard policy iteration); otherwise Newton steps
(``solver._Driver.solve``) from t phi, t = (mid - sigma)^{-1/(alpha+1)}, mid
the bracket midpoint.  Rounds stop at a bracket narrower than
1e-9 (1 + |c|_inf) or twice the guard, at a round that moves phi by no
more than rounding (a Newton solve that ends where it started), or after
``_CW_MAX_ROUNDS``.  The guard resolves each rho_i to
``solver._rounding`` of the terms of row i over phi_i^{alpha+1}.

Both eigenvalues lie in [-|c|_inf, |c|_inf]: the constant 1 is a
supersolution at -|c|_inf, and above |c|_inf the constants defeat the
maximum principle.  So the envelope ends -|c|_inf - 1 and |c|_inf + 1 must
read convergent and unbounded off the bracket, which check the
configuration, and the estimate is centred on the bracket's midpoint.  An
end read contrary to the theory or within the guard, and a round that
fails, are a ``BracketError``; no estimate runs the monotone iteration, and
each verdict can be replayed with it.  ``solve_general`` reads its
envelopes off the brackets of both eigenvalues in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import GridFunction, RadialGrid
from .operators import CoefficientField, EllipticOperator
from .solver import (
    PreconditionError,
    SolveOptions,
    SolveReport,
    Verdict,
    _problem,
    _rounding,
    _solve_report,
    _supabs,
    _tridiagonal_solve,
)
# unused here, but the benchmark's tracer wraps these eigenball.eigen names
from .operators import sample_profile, signed_power  # noqa: F401
from .solver import monotone_iteration, residual  # noqa: F401

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

# Collatz-Wielandt rounds stop once the bracket is this narrow relative to
# 1 + |c|_inf (or at the rounding guard), once a round moves phi by at most
# _CW_STALL in log, or after _CW_MAX_ROUNDS rounds
_CW_REL_WIDTH = 1e-9
_CW_STALL = 8.0 * np.finfo(float).eps
_CW_MAX_ROUNDS = 1000


class BracketError(RuntimeError):
    """An envelope end read contrary to the theory (configuration error), a
    shift lay within the rounding guard of the bracket, or a Collatz-Wielandt
    round failed."""


class EigenResidualError(RuntimeError):
    """Eigen-equation residual at ``lam`` above the requested tolerance."""

    def __init__(self, achieved: float, tol: float, lam: float, bracket: tuple):
        self.achieved = achieved
        self.tol = tol
        super().__init__(
            f"eigenfunction residual {achieved:.3e} at lambda={lam:.9g} exceeds tolerance "
            f"{tol:.3e}; Collatz-Wielandt bracket [{bracket[0]:.9g}, {bracket[1]:.9g}]"
        )


@dataclass
class EigenOptions:
    """Options of the eigenvalue estimates.

    ``bracket_width`` defaults to 1e-3 (1 + |c|_inf).  ``eig_residual_tol``
    bounds the reported eigen-equation residual at the bracket midpoint and
    defaults to 20x the bracket width.  ``tol`` is the residual tolerance of
    the alpha != 0 Collatz-Wielandt rounds.  Each one given must be > 0.
    """

    bracket_width: Optional[float] = None
    eig_residual_tol: Optional[float] = None
    tol: float = 1e-9

    def __post_init__(self):
        for name in ("bracket_width", "eig_residual_tol", "tol"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")

    def resolved_width(self, c_inf: float) -> float:
        if self.bracket_width is not None:
            return self.bracket_width
        return 1e-3 * (1.0 + c_inf)

    def resolved_residual_tol(self, width: float) -> float:
        if self.eig_residual_tol is not None:
            return self.eig_residual_tol
        return 20.0 * width


@dataclass
class EigenEstimate:
    """Certified bracket plus the normalized eigenfunction.

    ``lambda_lo`` is certified convergent and ``lambda_hi`` certified
    blow-up, both read off the Collatz-Wielandt bracket
    ``cw_bracket`` = (min rho, max rho) of a positive eigenvector phi
    (module docstring).  The bracket is centred on its midpoint, of
    half-width max(w/2, (max rho - min rho)/2 + 2 guard) for the resolved
    ``bracket_width`` w, so wider than w only when the rounds stopped wide
    or the rounding guard is large.  ``probes`` holds one
    ``(lambda, verdict, "cw")`` per shift decided: the two envelope ends and
    the two bracket ends.  The eigenfunction is phi (negated for the
    mirrored eigenvalue): it has sup-norm exactly 1 and a strict sign.
    """

    lambda_lo: float
    lambda_hi: float
    eigenfunction: GridFunction
    residual_sup: float
    sign: str
    probes: list
    cw_bracket: tuple

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lambda_lo + self.lambda_hi)

    @property
    def width(self) -> float:
        return self.lambda_hi - self.lambda_lo

    def summary(self):
        cw_lo, cw_hi = self.cw_bracket
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


def _collatz_wielandt(op, coeff, grid, direction, tol=SolveOptions.tol, base=None) -> _CWBracket:
    """Positive eigenvector (of the reflected operator for "down") and its
    bracket (module docstring); ``tol`` is the residual tolerance of the
    alpha != 0 rounds, and ``base`` a driver of ``solver._problem`` on c.  A
    round that fails is a ``BracketError``."""
    if base is None:
        base, _ = _problem(op, coeff, grid, None, 0.0)
    driver = base if direction == "up" else base.shifted(op=op.reflect())
    width = _CW_REL_WIDTH * (1.0 + float(np.max(np.abs(driver.c_eff))))
    inner = SolveOptions(tol=tol, U_max=math.inf)
    phi = np.ones(grid.n)
    stalled = False
    for rounds in range(_CW_MAX_ROUNDS + 1):
        res, aux = driver.residual(0.0, phi)
        phi_a1 = phi if driver.alpha == 0.0 else phi ** (driver.alpha + 1.0)
        rho = -res / phi_a1
        lo, hi = float(rho.min()), float(rho.max())
        # rho_i carries the rounding of the terms of row i over phi_i^{alpha+1}
        guard = float((_rounding(driver._bands(phi, aux, terms=True), phi) / phi_a1).max())
        if stalled or hi - lo <= max(width, 2.0 * guard) or rounds == _CW_MAX_ROUNDS:
            return _CWBracket(lo, hi, guard, phi)
        sigma = lo - max((hi - lo) / 100.0, 2.0 * guard)
        psi, cause = _inverse_step(driver, phi, phi_a1, aux, sigma, 0.5 * (lo + hi), inner)
        if cause:
            raise BracketError(
                f"Collatz-Wielandt round {rounds + 1} at sigma={sigma:.9g} failed: "
                f"{cause}; min phi {phi.min():.3e}, bracket [{lo:.9g}, {hi:.9g}]"
            )
        new = psi / psi.max()
        stalled = float(np.max(np.abs(np.log(new / phi)))) <= _CW_STALL
        phi = new


def _inverse_step(driver, phi, phi_a1, aux, sigma, mid, opts):
    """(psi, None), psi > 0 solving -G(psi) - sigma psi^{alpha+1} = phi^{alpha+1},
    or (None, cause); for alpha != 0 Newton steps from t phi (module docstring)."""
    if driver.alpha == 0.0:
        lower, diag, upper = driver._bands(phi, aux)
        psi = _tridiagonal_solve(-lower, -diag - sigma, -upper, phi)
        if psi is None:
            return None, "singular bands"
    else:
        shifted = driver.shifted(sigma)
        t = (mid - sigma) ** (-1.0 / (driver.alpha + 1.0))
        psi, rs, floor, _, _, ok, _ = shifted.solve(-phi_a1, t * phi, opts)
        if not ok and not rs <= floor:
            return None, f"the Newton solve stopped at {rs:.3e}, above its floor {floor:.3e}"
    if not psi.min() > 0.0:
        return None, f"psi lost its strict sign (min psi {psi.min():.3e})"
    return psi, None


def _verdict(cw, lam) -> Verdict:
    """Verdict on the shift ``lam`` read off the bracket ``cw``; within its
    guard band there is none."""
    if lam < cw.lo - cw.guard:
        return Verdict.CONVERGED
    if lam > cw.hi + cw.guard:
        return Verdict.UNBOUNDED
    where = "inside" if cw.lo <= lam <= cw.hi else f"within the rounding guard {cw.guard:.3e} of"
    raise BracketError(
        f"lambda={lam:.9g} lies {where} the Collatz-Wielandt bracket "
        f"[{cw.lo:.9g}, {cw.hi:.9g}]; no certified verdict"
    )


def _eigenfunction(base, cw, direction, lam, width, opts):
    """The eigenvector of the bracket ``cw`` (sup-norm 1, negated for
    "down") on the grid of the driver ``base`` on c, and its eigen-equation
    residual at ``lam``, checked against the resolved tolerance."""
    phi = GridFunction(base.grid, cw.phi if direction == "up" else -cw.phi)
    res_sup = _supabs(base.shifted(lam).residual(0.0, phi.values)[0])
    res_tol = opts.resolved_residual_tol(width)
    if not res_sup <= res_tol:
        raise EigenResidualError(res_sup, res_tol, lam, (cw.lo, cw.hi))
    return phi, res_sup


def _setup(op, coeff, grid, opts, direction):
    """The driver on c, |c|_inf, bracket width and CW bracket of one
    eigenvalue."""
    base, _ = _problem(op, coeff, grid, None, 0.0)
    c_inf = float(np.max(np.abs(base.c_eff)))
    cw = _collatz_wielandt(op, coeff, grid, direction, opts.tol, base)
    return base, c_inf, opts.resolved_width(c_inf), cw


def _estimate(op, coeff, grid, opts, direction: str):
    base, c_inf, width, cw = _setup(op, coeff, grid, opts, direction)
    # centred on the CW midpoint; both bracket ends clear the guard band by
    # one guard, so each reads off the bracket with a certified verdict
    lam_mid = 0.5 * (cw.lo + cw.hi)
    half = max(0.5 * width, 0.5 * (cw.hi - cw.lo) + 2.0 * cw.guard)
    lo, hi = lam_mid - half, lam_mid + half
    while hi - lo > 2.0 * half:  # rounding must not widen the bracket asked for
        hi = math.nextafter(hi, lo)
    # the envelope ends check the configuration: |c|_inf bounds the
    # eigenvalue, so the bracket lies strictly inside them
    ends = (-(c_inf + 1.0), c_inf + 1.0, lo, hi)
    probes = [(lam, _verdict(cw, lam).value, "cw") for lam in ends]
    if [p[1] for p in probes] != ["converged", "unbounded"] * 2:
        raise BracketError(
            f"the envelope ends lambda={ends[0]:.9g} and {ends[1]:.9g} read "
            f"{probes[0][1]} and {probes[1][1]}, not converged and unbounded; "
            f"|c|_inf bounds the eigenvalue, so this is a configuration error"
        )
    phi, res_sup = _eigenfunction(base, cw, direction, lam_mid, width, opts)
    return EigenEstimate(
        lambda_lo=lo,
        lambda_hi=hi,
        eigenfunction=phi,
        residual_sup=res_sup,
        sign="positive" if direction == "up" else "negative",
        probes=probes,
        cw_bracket=(cw.lo, cw.hi),
    )


def lambda_up(
    op: EllipticOperator,
    coeff: CoefficientField,
    grid: RadialGrid,
    opts: Optional[EigenOptions] = None,
) -> EigenEstimate:
    """Bracket the upper principal eigenvalue (positive eigenfunction).

    The bracket returned is centred on the midpoint of the Collatz-Wielandt
    bracket [min rho, max rho] of the positive eigenvector phi (module
    docstring), of width ``bracket_width`` unless that bracket and its
    rounding guard need more, and the eigenfunction is phi.  The ends of
    [-|c|_inf - 1, |c|_inf + 1] must read convergent and unbounded off it.
    ``residual_sup`` is the eigen-equation residual at the bracket midpoint.
    """
    return _estimate(op, coeff, grid, opts or EigenOptions(), "up")


def lambda_down(
    op: EllipticOperator,
    coeff: CoefficientField,
    grid: RadialGrid,
    opts: Optional[EigenOptions] = None,
) -> EigenEstimate:
    """Bracket the lower principal eigenvalue (negative eigenfunction).

    Mirror of ``lambda_up``: the Collatz-Wielandt bracket is that of the
    reflected operator -F(-p, -X), which swaps the two Pucci kinds, and the
    eigenfunction its eigenvector negated.  Its verdicts replay with the
    monotone iteration with g = +1 (negative decreasing iterates).
    """
    return _estimate(op, coeff, grid, opts or EigenOptions(), "down")


def eigenfunction_up(
    op: EllipticOperator,
    coeff: CoefficientField,
    lambda_bar_est: float,
    grid: RadialGrid,
    opts: Optional[EigenOptions] = None,
) -> GridFunction:
    """Normalized positive eigenfunction from a certified convergent shift.

    ``lambda_bar_est`` (the certified lower bracket end) must read
    convergent off the Collatz-Wielandt bracket; a shift above it or within
    its rounding guard is a ``BracketError``.  The eigenfunction is the
    Collatz-Wielandt eigenvector, normalized to sup-norm 1.  Its residual at
    ``lambda_bar_est`` plus half the bracket width is checked against
    ``opts.eig_residual_tol``; an excessive residual is reported via
    ``EigenResidualError`` rather than silently accepted.
    """
    opts = opts or EigenOptions()
    base, _, width, cw = _setup(op, coeff, grid, opts, "up")
    if _verdict(cw, lambda_bar_est) is not Verdict.CONVERGED:
        raise BracketError(
            f"lambda={lambda_bar_est:.9g} is not a certified convergent shift"
        )
    phi, _ = _eigenfunction(base, cw, "up", lambda_bar_est + 0.5 * width, width, opts)
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

    lambda must lie below lo - guard of the Collatz-Wielandt brackets of
    both eigenvalues (``opts.tol`` is the residual tolerance of their
    alpha != 0 rounds), or the solve raises a ``PreconditionError`` naming
    the bracket.  With t^{alpha+1} = |g|_inf / ((lo - guard - lambda)
    min(phi)^{alpha+1}), homogeneity and rho >= lo - guard make v0 = t phi
    of the upper eigenvalue a supersolution and u0 = -t phi of the lower
    one a subsolution: a sandwich looser than the solutions for data
    -|g|_inf and |g|_inf, but valid by comparison.  u is one Newton solve
    of the full problem (``solver._Driver.solve`` with c + lambda, which
    may change sign here) started at u0, so ``iterations`` and ``rejected``
    count Newton steps as for ``solve_neumann``.  A u outside
    [u0 - slack, v0 + slack] is reported as a discrete sandwich violation
    (``sandwich_ok=False``, ``converged=False``), not silently accepted.
    """
    opts = opts if opts is not None else SolveOptions()
    base, g = _problem(op, coeff, grid, None, g_profile)
    g_sup = float(np.max(np.abs(g)))

    envelopes = []
    for direction in ("up", "down"):
        cw = _collatz_wielandt(op, coeff, grid, direction, opts.tol, base)
        gap = cw.lo - cw.guard - lam
        if not gap > 0.0:
            raise PreconditionError(
                f"solve_general: lambda={lam:.9g} does not lie below the {direction} "
                f"Collatz-Wielandt bracket [{cw.lo:.9g}, {cw.hi:.9g}] less its "
                f"rounding guard {cw.guard:.3e}"
            )
        t = (g_sup / gap) ** (1.0 / (op.alpha + 1.0)) / float(cw.phi.min())
        envelopes.append(t * cw.phi)
    v0, u0 = envelopes[0], -envelopes[1]

    # Newton starts at u0: from 0, p = 3 just below the threshold stalls at
    # a residual of 2e2, and from v0 Pucci- with alpha > 0 runs to max_iter
    report = _solve_report(base.shifted(lam), g, u0, opts)
    u = report.solution.values
    slack = max(100.0 * opts.tol, 1e-12 * (1.0 + g_sup))
    report.sandwich_ok = bool(np.min(u - u0) >= -slack and np.max(u - v0) <= slack)
    report.converged = report.converged and report.sandwich_ok
    return report
