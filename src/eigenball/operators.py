"""Radial evaluation of the operator catalog and structure-condition checks.

Supported operators, all |p|^alpha-homogeneous in the gradient:

* ``pucci_minus`` / ``pucci_plus``: the extremal operators with ellipticity
  bounds a <= A, applied to the Hessian eigenvalues and multiplied by
  |Du|^alpha.
* ``p_laplacian``: div(|Du|^{p-2} Du), alpha = p - 2.  Radial form
  |u'|^{p-2} [(p-1) u'' + (N-1) u'/r].
* ``anisotropic``: |Du|^{q-2} tr(B1 D^2 u) + c0 |Du|^{q-4} <D^2 u B2 Du, B2 Du>
  restricted to scalar matrix profiles B1 = b1(r) I, B2 = b2(r) I, so the
  radial form is |u'|^{q-2} [(b1 + c0 b2^2) u'' + b1 (N-1) u'/r].

For a radial function the Hessian of u(|x|) has eigenvalue u'' with
multiplicity 1 (radial direction) and u'/r with multiplicity N-1, which is
what makes the pointwise evaluation above complete.

Vanishing gradients are regularized by the C^1 floor

    |u'|_delta := |u'|                        if |u'| >= delta,
                  (u'^2 + delta^2)/(2 delta)  otherwise,

so exponents alpha in (-1, 0) stay evaluable at critical points and the
evaluation is exact (and |p|^alpha-homogeneous) wherever |u'| >= delta; the
structure checks skip samples inside the floor zone.  The blend is chosen
continuously differentiable so that solvers can linearize through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PUCCI_MINUS",
    "PUCCI_PLUS",
    "P_LAPLACIAN",
    "ANISOTROPIC",
    "KINDS",
    "RegularityMeta",
    "EllipticOperator",
    "CoefficientField",
    "PropertyReport",
    "constant_profile",
    "poly_profile",
    "table_profile",
    "as_profile",
    "sample_profile",
    "signed_power",
    "gradient_floor",
    "pucci_extremal",
    "radial_hessian_eigs",
    "eval_radial_F",
    "eval_radial_F_from_eigs",
    "eval_radial_G",
    "check_homogeneity",
    "check_ellipticity",
]

PUCCI_MINUS = "pucci_minus"
PUCCI_PLUS = "pucci_plus"
P_LAPLACIAN = "p_laplacian"
ANISOTROPIC = "anisotropic"
KINDS = (PUCCI_MINUS, PUCCI_PLUS, P_LAPLACIAN, ANISOTROPIC)

DEFAULT_DELTA = 1e-8


# --------------------------- radial profiles --------------------------------


def constant_profile(value: float) -> Callable:
    v = float(value)

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.full_like(r, v)

    return profile


def poly_profile(coeffs) -> Callable:
    """Polynomial in r with coefficients [c0, c1, ...] (low order first)."""
    c = np.asarray(list(coeffs), dtype=float)
    if c.size == 0:
        raise ValueError("poly profile needs at least one coefficient")

    def profile(r):
        return np.polynomial.polynomial.polyval(np.asarray(r, dtype=float), c)

    return profile


def table_profile(r_samples, values) -> Callable:
    """Linear interpolation through tabulated (r, value) samples."""
    rs = np.asarray(r_samples, dtype=float)
    vs = np.asarray(values, dtype=float)
    if rs.ndim != 1 or rs.shape != vs.shape or rs.size < 2:
        raise ValueError("table profile needs matching 1-d r and value arrays")
    if np.any(np.diff(rs) <= 0):
        raise ValueError("table profile radii must be strictly increasing")

    def profile(r):
        return np.interp(np.asarray(r, dtype=float), rs, vs)

    return profile


def as_profile(obj) -> Callable:
    """Coerce a scalar or callable into a radial profile callable."""
    if callable(obj):
        return obj
    if isinstance(obj, (int, float, np.floating, np.integer)) and not isinstance(
        obj, bool
    ):
        return constant_profile(float(obj))
    raise TypeError(f"cannot interpret {type(obj).__name__} as a radial profile")


def sample_profile(profile, r: np.ndarray) -> np.ndarray:
    """Evaluate a profile (callable, scalar, or node array) on radii r."""
    r = np.asarray(r, dtype=float)
    if profile is None:
        return np.zeros_like(r)
    if isinstance(profile, np.ndarray):
        if profile.shape != r.shape:
            raise ValueError(
                f"profile array shape {profile.shape} does not match radii {r.shape}"
            )
        return profile.astype(float, copy=False)
    if np.isscalar(profile):
        return np.full_like(r, float(profile))
    vals = np.asarray(profile(r), dtype=float)
    if vals.shape != r.shape:
        vals = np.broadcast_to(vals, r.shape).astype(float)
    return vals


def signed_power(u, alpha: float):
    """|u|^alpha * u computed as sign(u) |u|^(alpha+1); avoids NaN for u < 0."""
    if alpha == 0.0:
        return np.asarray(u, dtype=float) * 1.0
    u = np.asarray(u, dtype=float)
    return np.sign(u) * np.abs(u) ** (alpha + 1.0)


def gradient_floor(u1_abs, delta: float):
    """Regularized gradient magnitude: exact above delta, C^1 quadratic below."""
    return np.where(
        u1_abs >= delta, u1_abs, (u1_abs * u1_abs + delta * delta) / (2.0 * delta)
    )


# ----------------------------- domain types ---------------------------------


@dataclass(frozen=True)
class RegularityMeta:
    """Declared Hoelder data (theta, nu, C1, C2); documentation only."""

    theta: float = 1.0
    nu: float = 1.0
    C1: float = 1.0
    C2: float = 1.0

    def __post_init__(self):
        for name, v in (("theta", self.theta), ("nu", self.nu)):
            if not (0.5 < v <= 1.0):
                raise ValueError(f"regularity: {name} must lie in (1/2, 1], got {v}")
        if self.C1 <= 0 or self.C2 <= 0:
            raise ValueError("regularity: C1, C2 must be positive")


@dataclass(frozen=True)
class EllipticOperator:
    """A member of the operator catalog with its structure constants.

    ``a`` and ``A`` are the ellipticity bounds (for the anisotropic kind they
    bound the profile b1); ``alpha`` is the gradient-homogeneity exponent.
    Instances are immutable and all evaluations are pure functions.
    """

    kind: str
    a: float
    A: float
    alpha: float
    p: Optional[float] = None
    c0: Optional[float] = None
    b1_profile: Optional[Callable] = field(default=None, compare=False)
    b2_profile: Optional[Callable] = field(default=None, compare=False)
    regularity_meta: Optional[RegularityMeta] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not (self.a > 0 and self.A >= self.a):
            raise ValueError(f"need 0 < a <= A, got a={self.a}, A={self.A}")
        if not self.alpha > -1:
            raise ValueError(f"need alpha > -1, got {self.alpha}")
        if self.kind == P_LAPLACIAN:
            if self.p is None or not self.p > 1:
                raise ValueError("p_laplacian needs exponent p > 1")
            if self.alpha != self.p - 2:
                raise ValueError(
                    f"p_laplacian requires alpha = p - 2 exactly "
                    f"(alpha={self.alpha}, p={self.p})"
                )
            if self.a != min(1.0, self.p - 1) or self.A != max(1.0, self.p - 1):
                raise ValueError(
                    "p_laplacian ellipticity bounds are min(1, p-1), max(1, p-1)"
                )
        elif self.kind == ANISOTROPIC:
            if self.c0 is None or not self.c0 > -1:
                raise ValueError("anisotropic needs coupling c0 > -1")
            if self.b1_profile is None or self.b2_profile is None:
                raise ValueError("anisotropic needs b1 and b2 radial profiles")
        else:
            if self.p is not None or self.c0 is not None:
                raise ValueError(f"{self.kind} takes no p/c0 parameters")

    # constructors ------------------------------------------------------

    @classmethod
    def pucci_minus(cls, a: float, A: float, alpha: float = 0.0, **kw):
        return cls(PUCCI_MINUS, float(a), float(A), float(alpha), **kw)

    @classmethod
    def pucci_plus(cls, a: float, A: float, alpha: float = 0.0, **kw):
        return cls(PUCCI_PLUS, float(a), float(A), float(alpha), **kw)

    @classmethod
    def laplacian(cls, alpha: float = 0.0, **kw):
        return cls(PUCCI_MINUS, 1.0, 1.0, float(alpha), **kw)

    @classmethod
    def p_laplacian(cls, p: float, **kw):
        p = float(p)
        return cls(
            P_LAPLACIAN,
            min(1.0, p - 1.0),
            max(1.0, p - 1.0),
            p - 2.0,
            p=p,
            **kw,
        )

    @classmethod
    def anisotropic(cls, a, A, q, c0, b1_profile=None, b2_profile=None, **kw):
        a, A, q = float(a), float(A), float(q)
        if b1_profile is None:
            b1_profile = constant_profile(0.5 * (a + A))
        if b2_profile is None:
            b2_profile = constant_profile(0.0)
        return cls(
            ANISOTROPIC,
            a,
            A,
            q - 2.0,
            c0=float(c0),
            b1_profile=as_profile(b1_profile),
            b2_profile=as_profile(b2_profile),
            **kw,
        )

    # structure ----------------------------------------------------------

    def reflect(self) -> "EllipticOperator":
        """Operator F~(p, X) = -F(-p, -X); swaps the two Pucci kinds.

        The p-Laplacian and the anisotropic family are odd, so they map to
        themselves.  Used to mirror negative-solution problems onto positive
        ones.
        """
        if self.kind == PUCCI_MINUS:
            return dataclasses.replace(self, kind=PUCCI_PLUS)
        if self.kind == PUCCI_PLUS:
            return dataclasses.replace(self, kind=PUCCI_MINUS)
        return self

    def ellipticity_bounds(self):
        """Effective two-sided bounds (a_eff, A_eff) for the ellipticity check.

        For the anisotropic kind a negative coupling c0 lowers the usable
        lower bound to a (1 + c0) and a positive one raises the upper bound
        to A + a c0, because <N B2 p, B2 p> ranges over [0, |B2 p|^2 tr N]
        and |B2 p|^2 <= a |p|^2.  Every other kind returns (a, A), which for
        the p-Laplacian are min(1, p - 1) and max(1, p - 1).
        """
        if self.kind == ANISOTROPIC:
            lo = self.a * (1.0 + min(self.c0, 0.0))
            hi = self.A + self.a * max(self.c0, 0.0)
            return lo, hi
        return self.a, self.A

    def weight_table(self, r):
        """The second-order weights on radii r, (pos, neg): pairs (w_rad, w_tan)
        for a Hessian eigenvalue >= 0 (pos) and < 0 (neg).  Pucci- weighs
        one >= 0 by a and one < 0 by A, Pucci+ the reverse; the p-Laplacian
        has (p - 1, 1) and the anisotropic kind the node arrays
        (b1 + c0 b2^2, b1).  Where the sign does not matter, pos is neg.
        """
        if self.kind == P_LAPLACIAN:
            pair = (self.p - 1.0, 1.0)
        elif self.kind == ANISOTROPIC:
            b1, b2 = sample_profile(self.b1_profile, r), sample_profile(self.b2_profile, r)
            pair = (b1 + self.c0 * b2 * b2, b1)
        else:
            lo, hi = (self.a, self.A) if self.kind == PUCCI_MINUS else (self.A, self.a)
            pair = (lo, lo)
            if lo != hi:
                return pair, (hi, hi)
        return pair, pair

    def second_order_weights(self, h_rad, h_tan, r):
        """Weights (w_rad, w_tan) with F = m^alpha (w_rad h_rad + (N-1) w_tan h_tan)
        at the Hessian eigenvalues h_rad, h_tan on radii r, each read off
        ``weight_table`` by the sign of its own eigenvalue."""
        pos, neg = self.weight_table(r)
        w_rad = np.where(np.asarray(h_rad) >= 0, pos[0], neg[0])
        return w_rad, np.where(np.asarray(h_tan) >= 0, pos[1], neg[1])

    def validate_profiles(self, r_samples, tol: float = 1e-12) -> None:
        """Check a <= b1 <= A and b2^2 <= a on the given radii (anisotropic)."""
        if self.kind != ANISOTROPIC:
            return
        r = np.asarray(r_samples, dtype=float)
        b1 = sample_profile(self.b1_profile, r)
        b2 = sample_profile(self.b2_profile, r)
        if np.min(b1) < self.a - tol or np.max(b1) > self.A + tol:
            raise ValueError("anisotropic: b1 profile leaves [a, A]")
        if np.max(b2 * b2) > self.a + tol:
            raise ValueError("anisotropic: b2^2 profile exceeds a")

    def check_regularity(self, r_samples):
        """Measured Hoelder quotients of the profiles at the declared exponent.

        Documentation-grade validation of the declared regularity data: for
        the anisotropic kind, reports max |b(r_i) - b(r_j)| / |r_i - r_j|^theta
        over adjacent samples next to the declared constant C1.  Never
        affects evaluation.
        """
        if self.regularity_meta is None:
            return None
        if self.kind != ANISOTROPIC:
            return {"within_declared": True, "quotients": {}}
        r = np.asarray(r_samples, dtype=float)
        dr = np.abs(np.diff(r)) ** self.regularity_meta.theta
        quotients = {}
        for name, profile in (("b1", self.b1_profile), ("b2", self.b2_profile)):
            vals = sample_profile(profile, r)
            quotients[name] = float(np.max(np.abs(np.diff(vals)) / dr))
        return {
            "within_declared": max(quotients.values()) <= self.regularity_meta.C1,
            "quotients": quotients,
        }


@dataclass(frozen=True)
class CoefficientField:
    """Radial profiles of the drift b, zero-order coefficient c, and data g.

    ``b`` is the radial component of the drift field b(x) = b(|x|) x/|x|.
    Each entry may be a scalar, a callable of r, or a node array.
    """

    b: object = 0.0
    c: object = 0.0
    g: object = 0.0

    def sample(self, r):
        r = np.asarray(r, dtype=float)
        return (
            sample_profile(self.b, r),
            sample_profile(self.c, r),
            sample_profile(self.g, r),
        )

    def sup_norms(self, grid):
        b, c, g = self.sample(grid.nodes)
        return {
            "b": float(np.max(np.abs(b))),
            "c": float(np.max(np.abs(c))),
            "g": float(np.max(np.abs(g))),
        }


# ------------------------------ evaluation ----------------------------------


def pucci_extremal(eigs, a: float, A: float, sign: str = "minus") -> float:
    """Extremal operator on Hessian eigenvalues given as (value, multiplicity).

    minus: a tr(M+) - A tr(M-);  plus: A tr(M+) - a tr(M-), where
    M = M+ - M- is the minimal decomposition into nonnegative parts.
    """
    if not (a > 0 and A >= a):
        raise ValueError(f"need 0 < a <= A, got a={a}, A={A}")
    pos = 0.0
    neg = 0.0
    for value, mult in eigs:
        if value >= 0.0:
            pos += value * mult
        else:
            neg -= value * mult
    if sign == "minus":
        return a * pos - A * neg
    if sign == "plus":
        return A * pos - a * neg
    raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")


def radial_hessian_eigs(u1: float, u2: float, r: float, N_dim: int):
    """Hessian eigenvalues of a radial function: u'' (mult 1), u'/r (mult N-1).

    r = 0 is rejected; at the origin the symmetric limit u'/r -> u'' applies
    and callers substitute it directly.
    """
    if not r > 0:
        raise ValueError("radial_hessian_eigs requires r > 0")
    return [(u2, 1), (u1 / r, N_dim - 1)]


def _scalar_or_array(x, scalar_inputs: bool):
    if scalar_inputs:
        return float(x)
    return x


def eval_radial_F_from_eigs(
    op: EllipticOperator,
    r,
    grad_mag,
    h_rad,
    h_tan,
    N_dim: int,
    *,
    delta: float = DEFAULT_DELTA,
):
    """Evaluate F from the gradient magnitude and Hessian eigenvalue pair.

    This is the homogeneity-faithful entry point: scaling (grad_mag, eigs)
    by (|t|, mu) scales the value by |t|^alpha mu.
    """
    scalar = np.isscalar(grad_mag) and np.isscalar(h_rad) and np.isscalar(h_tan)
    r = np.asarray(r, dtype=float)
    grad_mag = np.asarray(grad_mag, dtype=float)
    h_rad = np.asarray(h_rad, dtype=float)
    h_tan = np.asarray(h_tan, dtype=float)
    m = gradient_floor(grad_mag, delta)
    w_rad, w_tan = op.second_order_weights(h_rad, h_tan, r)
    form = w_rad * h_rad + (N_dim - 1) * w_tan * h_tan
    out = form if op.alpha == 0.0 else m**op.alpha * form
    return _scalar_or_array(out, scalar)


def eval_radial_F(
    op: EllipticOperator,
    r,
    u1,
    u2,
    N_dim: int,
    *,
    delta: float = DEFAULT_DELTA,
    tangential=None,
):
    """Evaluate F(x, Du, D^2 u) for a radial state (r, u', u'').

    ``tangential`` overrides the tangential Hessian eigenvalue u'/r; pass u''
    at r = 0 (the symmetry limit).  Requires r > 0 otherwise.
    """
    scalar = np.isscalar(u1) and np.isscalar(u2)
    r = np.asarray(r, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if tangential is None:
        if np.any(r <= 0):
            raise ValueError("eval_radial_F requires r > 0 (or pass tangential=)")
        h_tan = u1 / r
    else:
        h_tan = np.asarray(tangential, dtype=float)
    out = eval_radial_F_from_eigs(
        op, r, np.abs(u1), u2, h_tan, N_dim, delta=delta
    )
    return _scalar_or_array(out, scalar)


def eval_radial_G(
    op: EllipticOperator,
    coeff: CoefficientField,
    r,
    u,
    u1,
    u2,
    lam: float,
    N_dim: int,
    *,
    delta: float = DEFAULT_DELTA,
    tangential=None,
):
    """Left-hand side F + b(r) u' |u'|^alpha + (c(r) + lambda) |u|^alpha u."""
    scalar = np.isscalar(u) and np.isscalar(u1) and np.isscalar(u2)
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    F = eval_radial_F(op, r, u1, u2, N_dim, delta=delta, tangential=tangential)
    m = gradient_floor(np.abs(u1), delta)
    malpha = 1.0 if op.alpha == 0.0 else m**op.alpha
    b = sample_profile(coeff.b, r)
    c = sample_profile(coeff.c, r)
    out = F + b * u1 * malpha + (c + lam) * signed_power(u, op.alpha)
    return _scalar_or_array(out, scalar)


# --------------------------- structure checks -------------------------------


@dataclass
class PropertyReport:
    """Outcome of a randomized structure-condition check."""

    name: str
    kind: str
    requested: int
    evaluated: int
    skipped: int
    failures: list
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.evaluated > 0 and not self.failures

    def to_dict(self):
        return {**dataclasses.asdict(self), "passed": self.passed}


def _draw_states(sample_count, seed):
    """The seeded generator and the states (r, |p|, h_rad, h_tan) it drew."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 2.0, sample_count)
    m = 10.0 ** rng.uniform(-2.0, 1.0, sample_count)
    h_rad = rng.uniform(-5.0, 5.0, sample_count)
    h_tan = rng.uniform(-5.0, 5.0, sample_count)
    return rng, r, m, h_rad, h_tan


def _report(name, op, keep, bad, rel, max_recorded, **columns) -> PropertyReport:
    """Report of a check over the samples marked ``keep``: the first
    ``max_recorded`` samples marked ``bad`` are recorded with ``columns``, and
    ``max_violation`` is the largest kept ``rel``."""
    failures = [
        {key: float(col[i]) for key, col in columns.items()}
        for i in np.flatnonzero(bad)[:max_recorded]
    ]
    return PropertyReport(
        name=name,
        kind=op.kind,
        requested=keep.size,
        evaluated=int(np.count_nonzero(keep)),
        skipped=int(np.count_nonzero(~keep)),
        failures=failures,
        max_violation=float(np.max(rel[keep])) if np.any(keep) else 0.0,
    )


def check_homogeneity(
    op: EllipticOperator,
    sample_count: int,
    *,
    N_dim: int = 2,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    rtol: float = 1e-12,
    max_recorded: int = 10,
) -> PropertyReport:
    """Randomized check of F(x, t p, mu X) = |t|^alpha mu F(x, p, X).

    Gradient magnitude and Hessian eigenvalues scale independently (by |t|
    and mu).  Samples whose scaled or unscaled gradient magnitude falls
    inside the regularization zone (< delta) are skipped, not asserted.
    """
    rng, r, m, h_rad, h_tan = _draw_states(sample_count, seed)
    t = rng.choice([-1.0, 1.0], sample_count) * 10.0 ** rng.uniform(
        -1.0, 1.0, sample_count
    )
    mu = rng.uniform(0.0, 5.0, sample_count)
    keep = (m >= delta) & (np.abs(t) * m >= delta)

    lhs = eval_radial_F_from_eigs(
        op, r, np.abs(t) * m, mu * h_rad, mu * h_tan, N_dim, delta=delta
    )
    base = eval_radial_F_from_eigs(op, r, m, h_rad, h_tan, N_dim, delta=delta)
    rhs = np.abs(t) ** op.alpha * mu * base

    _, Aeff = op.ellipticity_bounds()
    scale = (
        np.abs(t) ** op.alpha
        * mu
        * m**op.alpha
        * Aeff
        * (np.abs(h_rad) + (N_dim - 1) * np.abs(h_tan) + 1.0)
    )
    err = np.abs(lhs - rhs)
    bad = keep & (err > rtol * scale)
    rel = np.where(scale > 0, err / scale, 0.0)
    return _report(
        "homogeneity", op, keep, bad, rel, max_recorded,
        r=r, grad_mag=m, h_rad=h_rad, h_tan=h_tan, t=t, mu=mu, rel_error=rel,
    )


def check_ellipticity(
    op: EllipticOperator,
    sample_count: int,
    *,
    N_dim: int = 2,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    rtol: float = 1e-10,
    max_recorded: int = 10,
) -> PropertyReport:
    """Randomized two-sided ellipticity check.

    A nonnegative perturbation (n2, n_t) is added to the Hessian eigenvalue
    pair, and the increment of F must lie in
    [a_eff m^alpha tr N, A_eff m^alpha tr N] with tr N = n2 + (N-1) n_t.
    """
    rng, r, m, h_rad, h_tan = _draw_states(sample_count, seed)
    n2 = rng.uniform(0.0, 5.0, sample_count)
    nt = rng.uniform(0.0, 5.0, sample_count)
    keep = m >= delta

    base = eval_radial_F_from_eigs(op, r, m, h_rad, h_tan, N_dim, delta=delta)
    pert = eval_radial_F_from_eigs(
        op, r, m, h_rad + n2, h_tan + nt, N_dim, delta=delta
    )
    diff = pert - base

    aeff, Aeff = op.ellipticity_bounds()
    malpha = m**op.alpha
    trN = n2 + (N_dim - 1) * nt
    lo = aeff * malpha * trN
    hi = Aeff * malpha * trN
    scale = malpha * Aeff * (trN + np.abs(h_rad) + (N_dim - 1) * np.abs(h_tan) + 1.0)
    slack = rtol * scale

    viol = np.maximum(lo - diff, diff - hi)
    bad = keep & (viol > slack)
    rel = np.where(scale > 0, np.maximum(viol, 0.0) / scale, 0.0)
    return _report(
        "ellipticity", op, keep, bad, rel, max_recorded,
        r=r, grad_mag=m, h_rad=h_rad, h_tan=h_tan, n2=n2, n_t=nt, rel_violation=rel,
    )
