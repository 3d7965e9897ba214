import math

import numpy as np
import pytest

import eigenball as eb
from eigenball.operators import gradient_floor


# ---------------------------- oracles ---------------------------------------


def cartesian_hessian(f, x, h=1e-4):
    """Finite-difference Hessian of f: R^N -> R at the point x."""
    N = len(x)
    H = np.empty((N, N))
    f0 = f(x)
    for i in range(N):
        ei = np.zeros(N)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, N):
            ej = np.zeros(N)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h**2)
    return H


RADIAL_PROFILES = [
    # (u(r), u'(r), u''(r))
    (lambda r: np.exp(-2.0 * r), lambda r: -2.0 * np.exp(-2.0 * r),
     lambda r: 4.0 * np.exp(-2.0 * r)),
    (np.cos, lambda r: -np.sin(r), lambda r: -np.cos(r)),
    (lambda r: r**2, lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r),
    (lambda r: 1.0 / (1.0 + r**2), lambda r: -2.0 * r / (1.0 + r**2) ** 2,
     lambda r: (6.0 * r**2 - 2.0) / (1.0 + r**2) ** 3),
    (lambda r: np.sin(3.0 * r) + 2.0 * r**2,
     lambda r: 3.0 * np.cos(3.0 * r) + 4.0 * r,
     lambda r: -9.0 * np.sin(3.0 * r) + 4.0),
]


# --------------------------- pucci_extremal ----------------------------------


def test_pucci_all_positive_eigs():
    assert eb.pucci_extremal([(1.0, 2)], 1.0, 2.0, "minus") == 2.0


def test_pucci_mixed_signs():
    assert eb.pucci_extremal([(1.0, 1), (-1.0, 1)], 1.0, 2.0, "minus") == -1.0


def test_pucci_exponential_profile_against_hessian_oracle():
    # full-Hessian eigendecomposition oracle for u(x) = e^{-|x|}, N = 2
    k, N = 1.0, 2
    x = np.array([1.0, 0.0])
    H = cartesian_hessian(lambda y: math.exp(-k * np.linalg.norm(y)), x)
    oracle = eb.pucci_extremal([(lam, 1) for lam in np.linalg.eigvalsh(H)], 1.0, 2.0, "minus")
    eigs = eb.radial_hessian_eigs(-k * math.exp(-k), k**2 * math.exp(-k), 1.0, N)
    val = eb.pucci_extremal(eigs, 1.0, 2.0, "minus")
    assert val == pytest.approx(-math.exp(-1.0), rel=1e-12)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_pucci_plus_minus_relation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eigs = [(v, 1) for v in rng.uniform(-3, 3, 4)]
        minus = eb.pucci_extremal(eigs, 0.5, 2.0, "minus")
        plus = eb.pucci_extremal([(-v, m) for v, m in eigs], 0.5, 2.0, "plus")
        assert minus == pytest.approx(-plus, rel=1e-14)


def test_pucci_laplacian_degeneration():
    rng = np.random.default_rng(4)
    for _ in range(50):
        eigs = [(v, int(m)) for v, m in zip(rng.uniform(-2, 2, 3), [1, 2, 1])]
        tr = sum(v * m for v, m in eigs)
        assert eb.pucci_extremal(eigs, 1.3, 1.3, "minus") == pytest.approx(1.3 * tr)


def test_pucci_rejects_bad_bounds():
    with pytest.raises(ValueError):
        eb.pucci_extremal([(1.0, 1)], 2.0, 1.0, "minus")
    with pytest.raises(ValueError):
        eb.pucci_extremal([(1.0, 1)], 1.0, 2.0, "sideways")


# ------------------------- radial_hessian_eigs -------------------------------


def test_radial_hessian_quadratic():
    assert eb.radial_hessian_eigs(1.0, 2.0, 0.5, 3) == [(2.0, 1), (2.0, 2)]


def test_radial_hessian_exponential():
    k, r = 2.0, 1.0
    u1, u2 = -k * math.exp(-k * r), k**2 * math.exp(-k * r)
    eigs = eb.radial_hessian_eigs(u1, u2, r, 2)
    assert eigs[0] == (pytest.approx(4.0 * math.exp(-2.0)), 1)
    assert eigs[1] == (pytest.approx(-2.0 * math.exp(-2.0)), 1)


def test_radial_hessian_cone():
    # u(x) = |x| at a point on the unit sphere in R^4
    eigs = eb.radial_hessian_eigs(1.0, 0.0, 1.0, 4)
    assert eigs == [(0.0, 1), (1.0, 3)]
    x = np.zeros(4)
    x[0] = 1.0
    H = cartesian_hessian(np.linalg.norm, x)
    vals = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0], atol=1e-6)


def test_radial_hessian_rejects_origin():
    with pytest.raises(ValueError):
        eb.radial_hessian_eigs(1.0, 1.0, 0.0, 2)


def test_radial_hessian_matches_cartesian_oracle():
    # full-Hessian eigendecomposition at random points, several profiles
    rng = np.random.default_rng(7)
    checked = 0
    for u, du, d2u in RADIAL_PROFILES:
        for N in (2, 3):
            for _ in range(12):
                x = rng.standard_normal(N)
                r = np.linalg.norm(x)
                if r < 0.3 or r > 1.5:
                    x *= (0.3 + rng.random()) / r
                    r = np.linalg.norm(x)
                H = cartesian_hessian(lambda y: float(u(np.linalg.norm(y))), x)
                got = np.sort(np.linalg.eigvalsh(H))
                expected = []
                for val, mult in eb.radial_hessian_eigs(
                    float(du(r)), float(d2u(r)), r, N
                ):
                    expected.extend([val] * mult)
                assert np.allclose(got, np.sort(expected), atol=1e-5)
                checked += 1
    assert checked >= 100


# ------------------------------ eval_radial_F --------------------------------


def test_eval_laplacian_on_quadratic():
    op = eb.EllipticOperator.laplacian()
    # u = r^2 at r = 0.5 in R^2: Delta(|x|^2) = 2N = 4
    assert eb.eval_radial_F(op, 0.5, 1.0, 2.0, 2) == pytest.approx(4.0)


def test_eval_plaplacian_cone_against_symbolic_divergence():
    sympy = pytest.importorskip("sympy")
    # oracle: spherical divergence form (r^{N-1} |u'|^{p-2} u')' / r^{N-1}
    r = sympy.symbols("r", positive=True)
    N, p = 3, 4
    u = r
    flux = r ** (N - 1) * sympy.Abs(sympy.diff(u, r)) ** (p - 2) * sympy.diff(u, r)
    oracle = sympy.simplify(sympy.diff(flux, r) / r ** (N - 1)).subs(r, 1)
    op = eb.EllipticOperator.p_laplacian(p)
    val = eb.eval_radial_F(op, 1.0, 1.0, 0.0, N)
    assert val == pytest.approx(float(oracle))
    assert val == pytest.approx(2.0)


def test_eval_plaplacian_smooth_profile_against_symbolic():
    sympy = pytest.importorskip("sympy")
    r = sympy.symbols("r", positive=True)
    N, p = 2, 3
    u = 2 + sympy.cos(sympy.pi * r)
    du = sympy.diff(u, r)
    # u' < 0 on (0, 1), so |u'| = -u'
    flux = r ** (N - 1) * (-du) ** (p - 2) * du
    oracle_expr = sympy.diff(flux, r) / r ** (N - 1)
    op = eb.EllipticOperator.p_laplacian(p)
    for rv in (0.2, 0.5, 0.8):
        u1 = float(du.subs(r, rv))
        u2 = float(sympy.diff(u, r, 2).subs(r, rv))
        got = eb.eval_radial_F(op, rv, u1, u2, N)
        assert got == pytest.approx(float(oracle_expr.subs(r, rv)), rel=1e-12)


def test_eval_pucci_exponential_composition():
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 1.0)
    u1, u2 = -math.exp(-1.0), math.exp(-1.0)
    got = eb.eval_radial_F(op, 1.0, u1, u2, 2)
    assert got == pytest.approx(-math.exp(-2.0), rel=1e-12)


def test_eval_exact_above_floor_and_finite_below():
    op = eb.EllipticOperator.p_laplacian(1.5)  # alpha = -0.5
    val = eb.eval_radial_F(op, 0.5, 0.25, 1.0, 2)
    expected = 0.25 ** (-0.5) * (0.5 * 1.0 + 0.25 / 0.5)
    assert val == pytest.approx(expected, rel=1e-14)
    assert np.isfinite(eb.eval_radial_F(op, 0.5, 0.0, 1.0, 2))


def test_gradient_floor_shape():
    delta = 1e-3
    xs = np.array([0.0, 5e-4, 1e-3, 2e-3, 1.0])
    m = gradient_floor(xs, delta)
    assert m[0] == pytest.approx(delta / 2)
    assert m[2] == pytest.approx(delta)
    assert m[3] == 2e-3 and m[4] == 1.0
    assert np.all(np.diff(m) >= 0)


def test_eval_radial_G_zero_order_only():
    op = eb.EllipticOperator.laplacian()
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    assert eb.eval_radial_G(op, coeff, 0.5, 1.0, 0.0, 0.0, 0.0, 2) == pytest.approx(-1.0)
    op2 = eb.EllipticOperator.pucci_minus(1.0, 1.0, 2.0)
    assert eb.eval_radial_G(op2, coeff, 0.5, 2.0, 0.0, 0.0, 0.0, 2) == pytest.approx(-8.0)


def test_eval_radial_G_with_drift():
    op = eb.EllipticOperator.laplacian()
    coeff = eb.CoefficientField(b=1.0, c=0.0, g=0.0)
    # u = r^2 at r = 0.5, N = 2: Delta u + b . Du = 4 + 1
    got = eb.eval_radial_G(op, coeff, 0.5, 0.25, 1.0, 2.0, 0.0, 2)
    assert got == pytest.approx(5.0)
    # cross-check against central differences of the Cartesian form
    h = 1e-5
    x = np.array([0.5, 0.0])

    def u(y):
        return float(np.dot(y, y))

    lap = sum(
        (u(x + h * e) - 2 * u(x) + u(x - h * e)) / h**2
        for e in np.eye(2)
    )
    grad = np.array([(u(x + h * e) - u(x - h * e)) / (2 * h) for e in np.eye(2)])
    bx = x / np.linalg.norm(x)
    assert got == pytest.approx(lap + float(bx @ grad), abs=1e-6)


# ----------------------------- structure checks ------------------------------


ALL_OPS = [
    eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5),
    eb.EllipticOperator.pucci_plus(0.5, 3.0, 0.0),
    eb.EllipticOperator.p_laplacian(3.0),
    eb.EllipticOperator.anisotropic(1.0, 2.0, q=3.0, c0=0.5,
                                    b1_profile=1.5, b2_profile=0.5),
]


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.kind)
def test_homogeneity_random_samples(op):
    report = eb.check_homogeneity(op, 2000, N_dim=3, seed=11)
    assert report.passed, report.failures[:3]
    assert report.max_violation < 1e-12


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.kind)
def test_ellipticity_random_samples(op):
    report = eb.check_ellipticity(op, 2000, N_dim=3, seed=12)
    assert report.passed, report.failures[:3]
    assert report.max_violation < 1e-10


def test_homogeneity_skips_regularization_zone():
    op = eb.EllipticOperator.p_laplacian(3.0)
    report = eb.check_homogeneity(op, 500, seed=1, delta=0.5)
    assert report.skipped > 0
    assert report.evaluated + report.skipped == 500
    assert report.passed


RECORD_KEYS = {
    "homogeneity": ["r", "grad_mag", "h_rad", "h_tan", "t", "mu", "rel_error"],
    "ellipticity": ["r", "grad_mag", "h_rad", "h_tan", "n2", "n_t", "rel_violation"],
}
REPORT_KEYS = ["name", "kind", "requested", "evaluated", "skipped", "failures",
               "max_violation", "passed"]


@pytest.mark.parametrize("max_recorded", [3, 1000])
@pytest.mark.parametrize("check", [eb.check_homogeneity, eb.check_ellipticity])
def test_failure_records(check, max_recorded):
    # rtol = -1 fails every evaluated sample; delta = 0.5 skips some, and
    # skipped samples are never recorded
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5)
    report = check(op, 200, seed=5, delta=0.5, rtol=-1.0, max_recorded=max_recorded)
    assert 0 < report.evaluated < report.requested == 200
    assert len(report.failures) == min(max_recorded, report.evaluated)
    for record in report.failures:
        assert list(record) == RECORD_KEYS[report.name]
        assert all(type(value) is float for value in record.values())
        assert record["grad_mag"] >= 0.5
    assert report.passed is False
    payload = report.to_dict()
    assert list(payload) == REPORT_KEYS
    assert payload["passed"] is False
    assert payload["failures"] == report.failures


def test_ellipticity_zero_perturbation_is_tight():
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0)
    v = eb.eval_radial_F_from_eigs(op, 1.0, 1.0, 2.0, -1.0, 2)
    w = eb.eval_radial_F_from_eigs(op, 1.0, 1.0, 2.0, -1.0, 2)
    assert v == w  # difference 0 lies in [0, 0]


def test_ellipticity_equality_for_laplacian():
    op = eb.EllipticOperator.laplacian()
    base = eb.eval_radial_F_from_eigs(op, 1.0, 1.0, 0.3, -0.7, 2)
    pert = eb.eval_radial_F_from_eigs(op, 1.0, 1.0, 0.3 + 2.0, -0.7 + 1.0, 2)
    assert pert - base == pytest.approx(2.0 + 1.0)  # a tr N with a = 1


def test_anisotropic_b2_zero_reduces_to_weighted_laplacian():
    b1 = 1.7
    op = eb.EllipticOperator.anisotropic(1.0, 2.0, q=3.5, c0=5.0,
                                         b1_profile=b1, b2_profile=0.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        r, u1, u2 = rng.uniform(0.1, 2), rng.uniform(-3, 3), rng.uniform(-3, 3)
        got = eb.eval_radial_F(op, r, u1, u2, 3)
        expected = abs(u1) ** 1.5 * b1 * (u2 + 2.0 * u1 / r)
        assert got == pytest.approx(expected, rel=1e-12)


def test_reflection_swaps_pucci_kinds():
    m = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0)
    assert m.reflect().kind == "pucci_plus"
    assert m.reflect().reflect() == m
    p = eb.EllipticOperator.p_laplacian(3.0)
    assert p.reflect() is p


def test_reflection_identity_on_values():
    # F~(p, X) = -F(-p, -X) pointwise
    m = eb.EllipticOperator.pucci_minus(1.0, 2.0, 1.0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        r, u1, u2 = rng.uniform(0.1, 2), rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = eb.eval_radial_F(m.reflect(), r, u1, u2, 2)
        rhs = -eb.eval_radial_F(m, r, -u1, -u2, 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ----------------------------- weight table ----------------------------------


def B1(r):
    return 1.5 + 0.25 * np.cos(np.pi * r)


def B2(r):
    return 0.5 * r


TABLE_OPERATORS = {
    "pucci_minus": eb.EllipticOperator.pucci_minus(1.0, 2.0),
    "pucci_plus": eb.EllipticOperator.pucci_plus(1.0, 2.0),
    "laplacian": eb.EllipticOperator.laplacian(),
    "p1.5": eb.EllipticOperator.p_laplacian(1.5),
    "p3": eb.EllipticOperator.p_laplacian(3.0),
    "anisotropic": eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=2.5, c0=0.5, b1_profile=B1, b2_profile=B2
    ),
}
SIGN_INDEPENDENT = {"laplacian", "p1.5", "p3", "anisotropic"}
TABLE_RADII = np.linspace(0.0, 1.0, 41)


def weight_rule(op, h, r, which):
    """The weight of the radial (which = 0) or tangential (which = 1)
    Hessian eigenvalue h on radii r, written out per kind."""
    if op.kind == "pucci_minus":
        return np.where(h >= 0, op.a, op.A)
    if op.kind == "pucci_plus":
        return np.where(h >= 0, op.A, op.a)
    if op.kind == "p_laplacian":
        return np.full(h.shape, (op.p - 1.0, 1.0)[which])
    b1, b2 = B1(r), B2(r)
    return np.broadcast_to((b1 + op.c0 * b2 * b2, b1)[which], h.shape)


@pytest.mark.parametrize("name", TABLE_OPERATORS)
def test_second_order_weights_follow_the_rule_of_each_kind(name):
    op = TABLE_OPERATORS[name]
    rng = np.random.default_rng(11)
    for _ in range(5):
        # signed eigenvalues with exact zeros, which take the >= 0 weight
        h_rad, h_tan = rng.integers(-2, 3, (2, TABLE_RADII.size)) * rng.uniform(
            0.1, 5.0, (2, TABLE_RADII.size)
        )
        w_rad, w_tan = op.second_order_weights(h_rad, h_tan, TABLE_RADII)
        np.testing.assert_array_equal(w_rad, weight_rule(op, h_rad, TABLE_RADII, 0))
        np.testing.assert_array_equal(w_tan, weight_rule(op, h_tan, TABLE_RADII, 1))


@pytest.mark.parametrize("name", TABLE_OPERATORS)
def test_weight_table_repeats_the_pair_where_the_sign_does_not_matter(name):
    pos, neg = TABLE_OPERATORS[name].weight_table(TABLE_RADII)
    assert (pos is neg) == (name in SIGN_INDEPENDENT)
    if name not in SIGN_INDEPENDENT:
        # Pucci: one weight per sign, the same for both eigenvalues
        assert pos[0] == pos[1] != neg[0] == neg[1]


@pytest.mark.parametrize("name", TABLE_OPERATORS)
def test_weight_table_of_the_reflected_operator(name):
    # the reflection swaps the two Pucci kinds, so it swaps their table;
    # the odd kinds map to themselves and keep it
    op = TABLE_OPERATORS[name]
    pos, neg = op.weight_table(TABLE_RADII)
    reflected = op.reflect().weight_table(TABLE_RADII)
    expected = (pos, neg) if name in SIGN_INDEPENDENT else (neg, pos)
    for got, want in zip(reflected, expected):
        for w_got, w_want in zip(got, want):
            np.testing.assert_array_equal(w_got, w_want)


# ------------------------------- validation ----------------------------------


def test_operator_validation():
    with pytest.raises(ValueError):
        eb.EllipticOperator.pucci_minus(2.0, 1.0, 0.0)  # a > A
    with pytest.raises(ValueError):
        eb.EllipticOperator.pucci_minus(1.0, 2.0, -1.5)  # alpha <= -1
    with pytest.raises(ValueError):
        eb.EllipticOperator.p_laplacian(0.5)  # p <= 1
    with pytest.raises(ValueError, match="alpha = p - 2"):
        eb.EllipticOperator("p_laplacian", 1.0, 2.0, 0.5, p=3.0)
    with pytest.raises(ValueError):
        eb.EllipticOperator.anisotropic(1.0, 2.0, q=3.0, c0=-1.0)


def test_p_laplacian_bounds_follow_p():
    op = eb.EllipticOperator.p_laplacian(1.5)
    assert (op.a, op.A) == (0.5, 1.0)
    assert op.alpha == -0.5
    op = eb.EllipticOperator.p_laplacian(4.0)
    assert (op.a, op.A) == (1.0, 3.0)


def test_anisotropic_profile_validation():
    op = eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=3.0, c0=0.0, b1_profile=lambda r: 1.0 + 2.0 * r, b2_profile=0.0
    )
    with pytest.raises(ValueError, match="b1"):
        op.validate_profiles(np.linspace(0, 1, 11))
    op2 = eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=3.0, c0=0.0, b1_profile=1.5, b2_profile=1.5
    )
    with pytest.raises(ValueError, match="b2"):
        op2.validate_profiles(np.linspace(0, 1, 11))
    # b1 = 3 leaves [a, A] = [1, 2] and b2 = 1.5 has b2^2 > a: every library
    # entry point raises, as solve_neumann does, instead of returning a
    # bracket or a solve for an operator outside the ellipticity class
    grid = eb.build_grid(1.0, 2, 51)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    ones = eb.GridFunction(grid, np.ones(grid.n))
    for profile, kw in (("b1", {"b1_profile": 3.0}), ("b2", {"b2_profile": 1.5})):
        op = eb.EllipticOperator.anisotropic(1.0, 2.0, q=2.0, c0=0.5, **kw)
        calls = {
            "residual": lambda: eb.residual(op, coeff, 0.0, None, ones),
            "solve_neumann": lambda: eb.solve_neumann(op, coeff, 0.0, None, grid),
            "monotone_iteration": lambda: eb.monotone_iteration(op, coeff, 0.5, None, grid),
            "solve_general": lambda: eb.solve_general(op, coeff, 0.0, None, grid),
            "lambda_up": lambda: eb.lambda_up(op, coeff, grid),
            "lambda_down": lambda: eb.lambda_down(op, coeff, grid),
            "eigenfunction_up": lambda: eb.eigenfunction_up(op, coeff, 0.5, grid),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=profile):
                call()
                pytest.fail(f"{name} accepted the {profile} profile")


def test_effective_ellipticity_bounds():
    op = eb.EllipticOperator.anisotropic(1.0, 2.0, q=3.0, c0=-0.5,
                                         b1_profile=1.5, b2_profile=0.5)
    lo, hi = op.ellipticity_bounds()
    assert lo == pytest.approx(0.5)  # a (1 + c0)
    assert hi == pytest.approx(2.0)
    op2 = eb.EllipticOperator.anisotropic(1.0, 2.0, q=3.0, c0=0.5,
                                          b1_profile=1.5, b2_profile=0.5)
    assert op2.ellipticity_bounds() == (1.0, 2.5)
    # the p-Laplacian's (a, A) are its bounds (min(1, p - 1), max(1, p - 1))
    assert eb.EllipticOperator.p_laplacian(1.5).ellipticity_bounds() == (0.5, 1.0)
    assert eb.EllipticOperator.p_laplacian(3.0).ellipticity_bounds() == (1.0, 2.0)


def test_regularity_meta_validation():
    with pytest.raises(ValueError):
        eb.RegularityMeta(theta=0.5)
    meta = eb.RegularityMeta(theta=0.75, nu=1.0, C1=2.0, C2=3.0)
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0, regularity_meta=meta)
    assert op.regularity_meta.theta == 0.75


def test_declared_regularity_measured_on_grid():
    meta = eb.RegularityMeta(theta=1.0, nu=1.0, C1=0.5, C2=1.0)
    op = eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=3.0, c0=0.0,
        b1_profile=lambda r: 1.2 + 0.3 * r, b2_profile=0.0,
        regularity_meta=meta,
    )
    r = np.linspace(0.0, 1.0, 101)
    result = op.check_regularity(r)
    assert result["within_declared"]  # slope 0.3 <= declared C1 = 0.5
    assert result["quotients"]["b1"] == pytest.approx(0.3, rel=1e-9)
    steep = eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=3.0, c0=0.0,
        b1_profile=lambda r: 1.2 + 0.8 * r, b2_profile=0.0,
        regularity_meta=meta,
    )
    assert not steep.check_regularity(r)["within_declared"]
    bare = eb.EllipticOperator.laplacian()
    assert bare.check_regularity(r) is None


def test_coefficient_field_sup_norms():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.5, c=lambda r: -1.0 - r**2, g=-3.0)
    sups = coeff.sup_norms(g)
    assert sups["b"] == 0.5
    assert sups["c"] == pytest.approx(2.0)
    assert sups["g"] == 3.0


def test_profiles():
    from eigenball.operators import as_profile, sample_profile

    r = np.linspace(0, 1, 5)
    assert np.allclose(sample_profile(2.5, r), 2.5)
    poly = eb.poly_profile([1.0, 0.0, 2.0])
    assert np.allclose(poly(r), 1.0 + 2.0 * r**2)
    tab = eb.table_profile([0.0, 1.0], [0.0, 2.0])
    assert np.allclose(tab(r), 2.0 * r)
    with pytest.raises(TypeError):
        as_profile("nope")
    with pytest.raises(ValueError):
        eb.table_profile([0.0, 0.0], [1.0, 2.0])
