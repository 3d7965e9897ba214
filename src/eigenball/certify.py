"""Explicit positive supersolution certificates with sign-changing c.

The construction lives on the ball B(0, R): pick an inner radius rho and a
thin outer shell of width eps, require

    c <  0          on the outer shell (R - eps, R],
    c <= -beta1     on the annulus (rho, R - eps],
    c <= +beta2     on the core [0, rho]   (c may be positive there),

and build the radial piecewise function

    v = D                                           on (R - eps, R],
    v = E r^2 - E (R + rho - eps) r + D
        + E rho (R - eps)                           on (rho, R - eps],
    v = D + 1 - exp(k (r - rho))                    on [0, rho],

with E = k / (R - rho - eps'), D = (E/4)(R - rho - eps)^2 + E C + eps and C
the closed-form constant that makes the annulus margin positive.  For
admissible beta2 (below an explicit upper bound) v is a strict positive
supersolution of G + c v^{alpha+1} <= -m < 0 with region margins m1 (outer),
m2 (annulus), m3 (core), which forces the upper principal eigenvalue to be
positive even though c changes sign.  The breakpoints {0, rho, R - eps} have
empty second-order sub-jets (the one-sided slopes are ordered the wrong way
around whenever E (R - rho - eps) > k), so no inequality is required there
and the grid sweep excludes one cell around each.

A companion result: integrating the inequality against 1/v shows any
admissible c must have negative integral over the ball, which is recorded on
every certificate as a consistency check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .grid import RadialGrid
from .operators import EllipticOperator, eval_radial_F, sample_profile

__all__ = [
    "SupersolutionParams",
    "PiecewiseRadialFn",
    "Certificate",
    "InfeasibleParams",
    "GridResolutionError",
    "beta2_upper_bound",
    "build_params",
    "build_supersolution",
    "default_c_band",
    "verify",
    "barrier_exponent",
    "integral_of_c",
]

CONTINUITY_RTOL = 1e-12


class InfeasibleParams(ValueError):
    """Requested band magnitudes cannot be certified; carries the bound."""

    def __init__(self, message: str, bound: Optional[float] = None):
        super().__init__(message)
        self.bound = bound


class GridResolutionError(ValueError):
    """The verification grid does not resolve all three regions."""


def _case2_supremum(N_dim, a, A, alpha, R, rho, eps):
    """Sup of F over the annulus divided by E^{alpha+1}: the closed form
    (R-rho-eps)^alpha {N[(A-a)(R-eps) + A(R-eps) - a rho] + a(R+rho-eps)}/(R-eps)."""
    bracket = N_dim * ((A - a) * (R - eps) + A * (R - eps) - a * rho) + a * (
        R + rho - eps
    )
    return (R - rho - eps) ** alpha * bracket / (R - eps)


def _middle_C(N_dim, a, A, alpha, R, rho, eps, beta1):
    return (_case2_supremum(N_dim, a, A, alpha, R, rho, eps) / beta1) ** (
        1.0 / (alpha + 1.0)
    )


def _core_numerator(N_dim, a, alpha, rho, k):
    return (
        k ** (alpha + 1.0)
        * math.exp(-(alpha + 1.0) * k * rho)
        * a
        * (k + (N_dim - 1) / rho)
    )


def beta2_upper_bound(N_dim, a, A, alpha, R, rho, k, beta1) -> float:
    """Largest admissible core magnitude beta2, in the thin-shell limit.

    Monotone increasing in beta1; with k = 1/rho it grows without bound as
    rho -> 0+ (a small positivity core tolerates huge c), and for fixed k it
    vanishes as rho -> R- or beta1 -> 0+.
    """
    if min(a, A, R, rho, k, beta1) <= 0 or A < a:
        raise ValueError("beta2_upper_bound needs positive arguments with A >= a")
    if not rho < R:
        raise ValueError("beta2_upper_bound needs rho < R")
    num = _core_numerator(N_dim, a, alpha, rho, k)
    inner = (2.0 * N_dim * A * R - (N_dim - 1) * a * (R + rho)) / (
        beta1 * R * (R - rho)
    )
    if inner <= 0:
        raise ValueError("beta2_upper_bound: degenerate geometry (nonpositive core)")
    D_limit = k * ((R - rho) / 4.0 + inner ** (1.0 / (alpha + 1.0)))
    den = (D_limit + 1.0 - math.exp(-k * rho)) ** (alpha + 1.0)
    return num / den


def _exact_beta2_bound(N_dim, a, alpha, rho, k, D):
    return _core_numerator(N_dim, a, alpha, rho, k) / (
        D + 1.0 - math.exp(-k * rho)
    ) ** (alpha + 1.0)


@dataclass
class SupersolutionParams:
    """Parameter tuple of the certificate construction.

    m1, m2, m3 are the region margins, filled by ``verify``.
    """

    N_dim: int
    a: float
    A: float
    alpha: float
    R: float
    rho: float
    eps: float
    eps_prime: float
    k: float
    beta1: float
    beta2: float
    E: float
    C: float
    D: float
    m1: Optional[float] = None
    m2: Optional[float] = None
    m3: Optional[float] = None

    def validate_geometry(self):
        if not (0 < self.rho < self.R):
            raise ValueError("params: need 0 < rho < R")
        if not (0 < self.eps < self.eps_prime < self.R - self.rho):
            raise ValueError("params: need 0 < eps < eps_prime < R - rho")
        if min(self.k, self.beta1, self.beta2, self.a) <= 0 or self.A < self.a:
            raise ValueError("params: need k, beta1, beta2, a > 0 and A >= a")
        if not self.alpha > -1:
            raise ValueError("params: need alpha > -1")
        return self

    def validate(self):
        self.validate_geometry()
        # slope condition making the sub-jets empty at the breakpoints;
        # equivalent to eps < eps_prime given E's formula, asserted both ways
        if not self.E * (self.R - self.rho - self.eps) > self.k:
            raise ValueError("params: need E (R - rho - eps) > k")
        if not self.D > (self.E / 4.0) * (self.R - self.rho - self.eps) ** 2:
            raise ValueError("params: positivity needs D > (E/4)(R - rho - eps)^2")
        limit = beta2_upper_bound(
            self.N_dim, self.a, self.A, self.alpha, self.R, self.rho, self.k, self.beta1
        )
        if not self.beta2 < limit:
            raise ValueError(
                f"params: beta2={self.beta2:.6g} is not below the limit bound "
                f"{limit:.6g}"
            )
        return self

    def as_dict(self):
        return asdict(self)


def build_params(
    N_dim,
    a,
    A,
    alpha,
    R,
    rho,
    k,
    beta1,
    beta2,
    *,
    eps: Optional[float] = None,
    eps_prime: Optional[float] = None,
    max_halvings: int = 20,
) -> SupersolutionParams:
    """Select shell widths and fill the derived constants E, C, D.

    ``beta2`` must be positive (a ``ValueError`` otherwise) and lie strictly
    below ``beta2_upper_bound``, the thin-shell limit form (an
    ``InfeasibleParams`` otherwise).  The search then halves eps' (and
    eps = eps'/2) from (R - rho)/4 until beta2 also clears the exact-D bound.
    The other invariants of ``validate`` hold by construction: eps < eps'
    gives the slope condition, and C >= 0 with eps > 0 gives
    D > (E/4)(R - rho - eps)^2.  Passing ``eps``/``eps_prime`` skips the
    search (used to study the thin-shell limit directly).
    """
    if not beta2 > 0:
        raise ValueError(f"need beta2 > 0, got {beta2}")
    if (eps is None) != (eps_prime is None):
        raise ValueError("pass both eps and eps_prime, or neither")
    if eps is not None and not 0 < eps < eps_prime < R - rho:
        raise ValueError(f"need 0 < eps < eps_prime < R - rho, got {eps}, {eps_prime}, {R - rho}")
    limit = beta2_upper_bound(N_dim, a, A, alpha, R, rho, k, beta1)
    if not beta2 < limit:
        raise InfeasibleParams(
            f"beta2={beta2:.6g} is not below the admissible bound {limit:.6g}",
            bound=limit,
        )

    top = (R - rho) / 4.0
    search = [(top / 2.0 ** (j + 1), top / 2.0**j) for j in range(max_halvings)]
    for e, ep in search if eps is None else [(eps, eps_prime)]:
        E = k / (R - rho - ep)
        C = _middle_C(N_dim, a, A, alpha, R, rho, e, beta1)
        D = (E / 4.0) * (R - rho - e) ** 2 + E * C + e
        if beta2 >= _exact_beta2_bound(N_dim, a, alpha, rho, k, D):
            continue
        return SupersolutionParams(
            N_dim=int(N_dim),
            a=float(a),
            A=float(A),
            alpha=float(alpha),
            R=float(R),
            rho=float(rho),
            eps=float(e),
            eps_prime=float(ep),
            k=float(k),
            beta1=float(beta1),
            beta2=float(beta2),
            E=float(E),
            C=float(C),
            D=float(D),
        ).validate()

    raise InfeasibleParams(
        f"no admissible shell width found in {max_halvings} halvings for "
        f"beta2={beta2:.6g} (limit bound {limit:.6g}); margin is numerically "
        f"infeasible",
        bound=limit,
    )


class PiecewiseRadialFn:
    """The three-branch candidate supersolution with its radial derivatives.

    Branch formulas (outer constant, middle parabola, inner exponential cap)
    are closed-form; the breakpoints {0, rho, R - eps} are flagged jet-empty
    and excluded from pointwise verification.
    """

    __slots__ = ("params", "breakpoints")

    def __init__(self, params: SupersolutionParams):
        self.params = params
        self.breakpoints = (0.0, params.rho, params.R - params.eps)
        p = params
        for where, r in (("rho", p.rho), ("R - eps", p.R - p.eps)):
            if abs(self._parabola(r) - p.D) > CONTINUITY_RTOL * abs(p.D):
                raise ValueError(f"supersolution branches discontinuous at {where}")
        fine = np.linspace(0.0, p.R, 4001)
        if np.min(self.value(fine)) <= 0:
            raise ValueError("supersolution is not positive")

    def _parabola(self, r):
        p = self.params
        return (
            p.E * r**2
            - p.E * (p.R + p.rho - p.eps) * r
            + p.D
            + p.E * p.rho * (p.R - p.eps)
        )

    def _branches(self, r, inner, middle, outer):
        """Callables ``inner`` and ``middle`` of r on [0, rho] and
        (rho, R - eps], the constant ``outer`` on (R - eps, R]."""
        p = self.params
        r = np.asarray(r, dtype=float)
        core = r <= p.rho
        shell = r > p.R - p.eps
        annulus = ~core & ~shell
        out = np.empty_like(r)
        out[core] = inner(r[core])
        out[annulus] = middle(r[annulus])
        out[shell] = outer
        return out

    def value(self, r):
        p = self.params
        return self._branches(
            r, lambda s: p.D + 1.0 - np.exp(p.k * (s - p.rho)), self._parabola, p.D
        )

    def deriv1(self, r):
        p = self.params
        return self._branches(
            r,
            lambda s: -p.k * np.exp(p.k * (s - p.rho)),
            lambda s: p.E * (2.0 * s - (p.R + p.rho - p.eps)),
            0.0,
        )

    def deriv2(self, r):
        p = self.params
        return self._branches(
            r, lambda s: -p.k**2 * np.exp(p.k * (s - p.rho)), lambda s: 2.0 * p.E, 0.0
        )

    def middle_minimum(self):
        """Location and value of the parabola minimum, D - (E/4)(R-rho-eps)^2."""
        p = self.params
        r_min = 0.5 * (p.R + p.rho - p.eps)
        return r_min, p.D - (p.E / 4.0) * (p.R - p.rho - p.eps) ** 2


def build_supersolution(params: SupersolutionParams) -> PiecewiseRadialFn:
    """Instantiate the candidate supersolution for validated parameters."""
    return PiecewiseRadialFn(params)


def default_c_band(params: SupersolutionParams):
    """A continuous sign-changing profile inside the admissible band.

    Plateaus +beta2/2 on [0, rho/2], -beta1 on the annulus, -beta1/2 on the
    outer shell, with linear blends of width min(eps, rho)/4.  Any profile
    inside the band is admissible; these plateau values are free choices.
    """
    p = params
    w = min(p.eps, p.rho) / 4.0
    knots = np.array(
        [0.0, p.rho / 2.0, p.rho / 2.0 + w, p.R - p.eps, p.R - p.eps + w, p.R]
    )
    vals = np.array(
        [
            p.beta2 / 2.0,
            p.beta2 / 2.0,
            -p.beta1,
            -p.beta1,
            -p.beta1 / 2.0,
            -p.beta1 / 2.0,
        ]
    )

    def profile(r):
        return np.interp(np.asarray(r, dtype=float), knots, vals)

    return profile


def integral_of_c(c_profile, grid: RadialGrid) -> float:
    """Trapezoid quadrature of c over the ball: int c(r) N omega_N r^{N-1} dr."""
    r = grid.nodes
    c = sample_profile(c_profile, r)
    N = grid.N_dim
    omega = math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
    return float(np.trapezoid(c * N * omega * r ** (N - 1.0), r))


@dataclass
class Certificate:
    """Verified margins for a candidate supersolution.

    accept requires all closed-form margins and the grid margin positive,
    a positive candidate, and a negative integral of c.
    """

    params: SupersolutionParams
    m1: float
    m2: float
    m3: float
    grid_margin: float
    integral_c: float
    positivity_ok: bool
    verdict: str

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"

    def margin(self) -> float:
        return min(self.m1, self.m2, self.m3, self.grid_margin)

    def to_dict(self):
        return asdict(self)

    def summary(self):
        return {
            "verdict": self.verdict,
            "m1": self.m1,
            "m2": self.m2,
            "m3": self.m3,
            "grid_margin": self.grid_margin,
            "integral_c": self.integral_c,
        }


def verify(
    params: SupersolutionParams,
    v,
    c_profile,
    grid: RadialGrid,
) -> Certificate:
    """Compute the closed-form margins and an independent grid sweep.

    The sweep evaluates |Dv|^alpha (A tr(D^2 v)+ - a tr(D^2 v)-) + c v^{alpha+1}
    node-wise away from the jet-empty breakpoints; the maximal extremal
    operator dominates every member of the ellipticity class, so a positive
    sweep margin certifies the whole class, not just one operator.

    Only the geometry of ``params`` is validated here: infeasible band
    magnitudes are reported through nonpositive margins and a reject
    verdict, not an exception.
    """
    params.validate_geometry()
    p = params
    if grid.R != p.R:
        raise ValueError(f"grid radius {grid.R} does not match params R={p.R}")
    r = grid.nodes
    regions = (
        r <= p.rho,
        (r > p.rho) & (r <= p.R - p.eps),
        r > p.R - p.eps,
    )
    for name, mask in zip(("core", "annulus", "shell"), regions):
        if int(np.count_nonzero(mask)) < 20:
            raise GridResolutionError(
                f"grid too coarse: region {name!r} has "
                f"{int(np.count_nonzero(mask))} nodes, need >= 20"
            )

    ap1 = p.alpha + 1.0

    # outer shell: F vanishes on the constant branch, so the margin is
    # driven by c alone; c must stay strictly negative there
    shell_r = np.linspace(p.R - p.eps, p.R, 2001)
    c_shell_max = float(np.max(sample_profile(c_profile, shell_r)))
    m1 = -c_shell_max * p.D**ap1

    # annulus: closed-form bound at the parabola minimum
    v_min = p.D - (p.E / 4.0) * (p.R - p.rho - p.eps) ** 2
    m2 = p.beta1 * v_min**ap1 - p.E**ap1 * _case2_supremum(
        p.N_dim, p.a, p.A, p.alpha, p.R, p.rho, p.eps
    )

    # core: exponential cap bound
    m3 = _core_numerator(p.N_dim, p.a, p.alpha, p.rho, p.k) - p.beta2 * (
        p.D + 1.0 - math.exp(-p.k * p.rho)
    ) ** ap1

    # positivity of the candidate on a fine grid
    fine = np.linspace(0.0, p.R, max(4 * grid.n, 4001))
    positivity_ok = bool(np.min(v.value(fine)) > 0)

    # grid sweep with the maximal extremal operator, one cell around each
    # breakpoint excluded (empty sub-jets there)
    keep = np.ones(grid.n, dtype=bool)
    for bp in (0.0, p.rho, p.R - p.eps):
        keep &= np.abs(r - bp) > grid.h
    rk = r[keep]
    sweep_op = EllipticOperator.pucci_plus(p.a, p.A, p.alpha)

    vv = v.value(rk)
    v1 = v.deriv1(rk)
    v2 = v.deriv2(rk)
    ck = sample_profile(c_profile, rk)
    F = eval_radial_F(sweep_op, rk, v1, v2, p.N_dim)
    swept = F + ck * np.sign(vv) * np.abs(vv) ** ap1
    grid_margin = float(np.min(-swept))

    integral_c = integral_of_c(c_profile, grid)

    accept = (
        min(m1, m2, m3) > 0
        and grid_margin > 0
        and positivity_ok
        and integral_c < 0
    )
    params.m1, params.m2, params.m3 = float(m1), float(m2), float(m3)
    return Certificate(
        params=params,
        m1=float(m1),
        m2=float(m2),
        m3=float(m3),
        grid_margin=grid_margin,
        integral_c=integral_c,
        positivity_ok=positivity_ok,
        verdict="accept" if accept else "reject",
    )


def barrier_exponent(
    a, A, N_dim, rho, b_sup, c_sup, alpha, *, margin: float = 1e-8, tol: float = 1e-10
) -> float:
    """Smallest exponential rate k making the annulus barrier strict.

    Returns (by bisection to ``tol``) the least k with

        a k^{alpha+2} - (A (N-1)/rho + b_sup) k^{alpha+1} - c_sup >= margin,

    which makes e^{-k r} - e^{-k R} a strict subsolution on rho < r < R and
    hence drives the Hopf-type boundary-point argument.
    """
    if a <= 0 or A < a or rho <= 0 or b_sup < 0 or c_sup < 0 or not alpha > -1:
        raise ValueError("barrier_exponent: invalid arguments")
    B = A * (N_dim - 1) / rho + b_sup

    def f(k):
        return a * k ** (alpha + 2.0) - B * k ** (alpha + 1.0) - c_sup

    # f decreases to its minimum at (alpha+1)B/((alpha+2)a), then grows to
    # infinity; the target set {f >= margin} is a half-line
    lo = (alpha + 1.0) * B / ((alpha + 2.0) * a)
    hi = max(1.0, 2.0 * lo)
    while f(hi) < margin:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= margin:
            hi = mid
        else:
            lo = mid
    return hi
