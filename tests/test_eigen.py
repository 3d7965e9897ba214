import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import eigenball as eb


LAP = eb.EllipticOperator.laplacian()
GRID = eb.build_grid(1.0, 2, 101)


def bracket(op, c, grid=GRID, sign="up", **kw):
    coeff = eb.CoefficientField(b=0.0, c=c, g=0.0)
    opts = eb.EigenOptions(**kw)
    fn = eb.lambda_up if sign == "up" else eb.lambda_down
    return fn(op, coeff, grid, opts)


def test_constant_coefficient_eigenvalue():
    est = bracket(LAP, -1.0)
    assert est.lambda_lo < 1.0 < est.lambda_hi
    assert est.width <= 1e-3 * 2.0
    assert np.abs(est.eigenfunction.values - 1.0).max() < 1e-9


def test_zero_coefficient_threshold():
    est = bracket(LAP, 0.0)
    assert est.lambda_lo < 0.0 < est.lambda_hi
    assert est.width <= 1e-3


def test_bracket_respects_coefficient_bound():
    est = bracket(LAP, lambda r: -1.0 - r**2, bracket_width=0.02)
    # the threshold lies within [-|c|_inf, |c|_inf] up to the bracket width
    assert est.lambda_hi <= 2.0 + est.width
    assert est.lambda_lo >= -2.0 - est.width


def test_eigenfunction_positive_and_normalized():
    est = bracket(LAP, lambda r: -1.0 - r**2, bracket_width=0.02)
    phi = est.eigenfunction
    assert phi.sup_norm() == 1.0
    assert phi.min() > 0.0
    assert est.residual_sup <= 20.0 * est.width


def test_scaling_invariance_of_bracket():
    # the probe data scale g_scale is deprecated and ignored: by homogeneity
    # it never moved the bracket
    c = lambda r: -1.0 - 0.5 * np.sin(3.0 * r)
    est1 = bracket(LAP, c, g_scale=1.0, bracket_width=0.02)
    with pytest.warns(DeprecationWarning, match="g_scale"):
        est10 = bracket(LAP, c, g_scale=10.0, bracket_width=0.02)
    assert est1.lambda_lo == est10.lambda_lo
    assert est1.lambda_hi == est10.lambda_hi


def test_lambda_down_mirrors_lambda_up_for_odd_operator():
    c = lambda r: -1.0 - r**2
    up = bracket(LAP, c, sign="up", bracket_width=0.02)
    down = bracket(LAP, c, sign="down", bracket_width=0.02)
    assert down.lambda_lo == pytest.approx(up.lambda_lo, abs=1e-12)
    assert down.lambda_hi == pytest.approx(up.lambda_hi, abs=1e-12)
    assert down.eigenfunction.max() < 0.0
    assert down.eigenfunction.sup_norm() == 1.0
    assert np.allclose(down.eigenfunction.values, -up.eigenfunction.values)


def test_lambda_down_equals_lambda_up_of_reflected_operator():
    # oracle: the sign flip u -> -u maps the mirrored problem onto the
    # reflected operator -F(-p, -X), which swaps the extremal kinds
    minus = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0)
    c = lambda r: -1.0 - r**2
    down = bracket(minus, c, sign="down", bracket_width=0.02)
    up_reflected = bracket(minus.reflect(), c, sign="up", bracket_width=0.02)
    assert down.lambda_lo == pytest.approx(up_reflected.lambda_lo, abs=1e-12)
    assert down.lambda_hi == pytest.approx(up_reflected.lambda_hi, abs=1e-12)
    assert np.allclose(down.eigenfunction.values,
                       -up_reflected.eigenfunction.values)


def test_pucci_kinds_have_distinct_thresholds():
    c = lambda r: -1.0 - r**2
    up_minus = bracket(eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0), c, bracket_width=0.02)
    up_plus = bracket(eb.EllipticOperator.pucci_plus(1.0, 2.0, 0.0), c, bracket_width=0.02)
    assert up_minus.lambda_lo > up_plus.lambda_hi  # genuinely different


def test_eigenfunction_up_standalone():
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    est = eb.lambda_up(LAP, coeff, GRID)
    phi = eb.eigenfunction_up(LAP, coeff, est.lambda_lo, GRID)
    assert phi.sup_norm() == 1.0
    assert np.abs(phi.values - est.eigenfunction.values).max() < 1e-12


def test_eigenfunction_up_rejects_divergent_shift():
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    with pytest.raises(eb.BracketError):
        eb.eigenfunction_up(LAP, coeff, 1.5, GRID)


def test_eigen_residual_tolerance_reported():
    # c = -1 has the exact eigenpair (1, 1), residual 0 at the CW midpoint;
    # c = -1 - r^2 leaves a rounding-level residual
    coeff = eb.CoefficientField(b=0.0, c=lambda r: -1.0 - r**2, g=0.0)
    with pytest.raises(eb.EigenResidualError) as exc:
        eb.lambda_up(LAP, coeff, GRID, eb.EigenOptions(eig_residual_tol=1e-15))
    assert exc.value.achieved > 1e-15


def test_bracket_grid_stability():
    c = lambda r: -1.0 - r**2
    est1 = bracket(LAP, c, grid=eb.build_grid(1.0, 2, 101), bracket_width=0.02)
    est2 = bracket(LAP, c, grid=eb.build_grid(1.0, 2, 201), bracket_width=0.02)
    w = est1.width
    mid_shift = abs(est1.midpoint - est2.midpoint)
    assert mid_shift < max(2.0 * w, 10.0 * 0.01)


def test_lipschitz_stability_under_refinement():
    c = lambda r: -1.0 - r**2
    q1 = eb.lipschitz_quotient(bracket(LAP, c, grid=eb.build_grid(1.0, 2, 101), bracket_width=0.02).eigenfunction)
    q2 = eb.lipschitz_quotient(bracket(LAP, c, grid=eb.build_grid(1.0, 2, 201), bracket_width=0.02).eigenfunction)
    assert abs(q2 - q1) / q1 < 0.2


def test_bracket_endpoints_recheck_independently():
    c = lambda r: -1.0 - r**2
    est = bracket(LAP, c, bracket_width=0.02)
    coeff = eb.CoefficientField(b=0.0, c=c, g=0.0)
    lo = eb.monotone_iteration(LAP, coeff, est.lambda_lo, -1.0, GRID)
    hi = eb.monotone_iteration(LAP, coeff, est.lambda_hi, -1.0, GRID,
                               eb.SolveOptions(max_iter=400_000))
    assert lo.verdict is eb.Verdict.CONVERGED
    assert hi.verdict is eb.Verdict.UNBOUNDED


def test_probe_trace_is_recorded():
    est = bracket(LAP, -1.0)
    assert est.probes[0][0] == -2.0 and est.probes[0][1] == "converged"
    assert est.probes[1][0] == 2.0 and est.probes[1][1] == "unbounded"
    assert len(est.probes) >= 3


# ------------------------------ solve_general ---------------------------------


def test_solve_general_zero_data():
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    rep = eb.solve_general(LAP, coeff, 0.0, None, GRID)
    assert rep.converged
    assert rep.solution.sup_norm() <= 1e-6


def test_solve_general_constant_negative_solution():
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=1.0)
    rep = eb.solve_general(LAP, coeff, 0.0, None, GRID)
    assert rep.converged and rep.sandwich_ok
    assert np.abs(rep.solution.values + 1.0).max() < 1e-7


def test_solve_general_sign_changing_data():
    g_profile = lambda r: np.sin(3.0 * r) - 0.2
    samples = g_profile(GRID.nodes)
    assert samples.min() < 0.0 < samples.max()  # data genuinely changes sign
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=g_profile)
    # one operator per second-order weight path: the isotropic short form,
    # the Pucci sign weights, and separate radial/tangential arrays
    ops = {
        "laplacian": LAP,
        "pucci_minus": eb.EllipticOperator.pucci_minus(1.0, 2.0),
        "anisotropic": eb.EllipticOperator.anisotropic(
            1.0, 2.0, q=2.0, c0=0.5, b1_profile=1.25, b2_profile=0.5
        ),
    }
    for name, op in ops.items():
        rep = eb.solve_general(op, coeff, 0.0, None, GRID)
        assert rep.converged and rep.sandwich_ok, name
        assert rep.residual_sup <= 1e-9, name


def test_solve_general_converges_on_the_benchmark_data():
    # u is one Newton solve of the full problem; for the Laplacian, a linear
    # operator, it takes a single step
    grid = eb.build_grid(1.0, 2, 401)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=lambda r: np.sin(3.0 * r) - 0.2)
    rep = eb.solve_general(LAP, coeff, 0.0, None, grid)
    assert rep.converged and rep.sandwich_ok
    assert rep.residual_sup <= 1e-9
    assert rep.iterations <= 3


NEAR_THRESHOLD_OPS = {
    "laplacian": LAP,
    "pucci_minus": eb.EllipticOperator.pucci_minus(1.0, 2.0),
    "pucci_plus": eb.EllipticOperator.pucci_plus(1.0, 2.0),
    "p_laplacian_3": eb.EllipticOperator.p_laplacian(3.0),
    "pucci_minus_alpha_0.5": eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(NEAR_THRESHOLD_OPS))
def test_solve_general_converges_near_the_threshold(name):
    # with c = -1 both principal eigenvalues are 1 for every operator, with
    # eigenfunction 1, so the envelopes are the constants -+|g|_inf / 0.01
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=lambda r: np.sin(3.0 * r) - 0.2)
    opts = eb.SolveOptions(tol=1e-7)
    rep = eb.solve_general(NEAR_THRESHOLD_OPS[name], coeff, 0.99, None, GRID, opts)
    assert rep.converged and rep.sandwich_ok
    assert rep.residual_sup <= opts.tol


@pytest.mark.parametrize("name", ["p_laplacian_3", "pucci_minus_alpha_0.5"])
@pytest.mark.parametrize(
    "g", [lambda r: np.sin(3.0 * r) - 0.2, 0.0], ids=["sign_changing", "zero"]
)
def test_solve_general_where_c_plus_lambda_vanishes(name, g):
    # c + lambda = 0.25 - r^2 vanishes at the node r = 0.5.  With g = 0 both
    # envelopes are 0, so the Newton solve starts from 0, where the alpha > 0
    # start c |u|^alpha u = g must not divide by c + lambda
    coeff = eb.CoefficientField(b=0.0, c=lambda r: -r * r, g=g)
    assert 0.5 in GRID.nodes
    opts = eb.SolveOptions(tol=1e-7)
    with np.errstate(divide="raise", invalid="raise"):
        rep = eb.solve_general(NEAR_THRESHOLD_OPS[name], coeff, 0.25, None, GRID, opts)
    assert rep.converged and rep.sandwich_ok
    assert rep.residual_sup <= opts.tol


SIGN_CHANGING = eb.CoefficientField(
    b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: np.sin(3.0 * r) - 0.2
)

NEGATIVE_ALPHA_OPS = {
    "p_laplacian_1.5": eb.EllipticOperator.p_laplacian(1.5),
    "pucci_minus_alpha_-0.5": eb.EllipticOperator.pucci_minus(1.0, 2.0, -0.5),
    "pucci_plus_alpha_-0.5": eb.EllipticOperator.pucci_plus(1.0, 2.0, -0.5),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_ALPHA_OPS))
def test_solve_general_with_negative_alpha(name):
    # the delta^alpha factor of the gradient floor amplifies the bands, so
    # the Newton solves of the Collatz-Wielandt rounds stop at their own
    # rounding floor
    coeff = SIGN_CHANGING
    opts = eb.SolveOptions(tol=1e-7)
    grid = eb.build_grid(1.0, 2, 401)
    rep = eb.solve_general(NEGATIVE_ALPHA_OPS[name], coeff, 0.0, None, grid, opts)
    assert rep.converged and rep.sandwich_ok
    assert rep.residual_sup <= opts.tol


def test_solve_general_rejects_shift_above_threshold():
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=1.0)
    with pytest.raises(eb.PreconditionError):
        eb.solve_general(LAP, coeff, 1.5, None, GRID)


def _count_monotone_runs(monkeypatch):
    """Wrap monotone_iteration where the solver and eigen modules bind it;
    the list returned records every call."""
    from eigenball import eigen, solver

    calls = []
    for module in (solver, eigen):
        original = module.monotone_iteration

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "monotone_iteration", counted)
    return calls


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5])
def test_solve_general_makes_no_monotone_run(monkeypatch, alpha):
    calls = _count_monotone_runs(monkeypatch)
    coeff = SIGN_CHANGING
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, alpha)
    rep = eb.solve_general(op, coeff, 0.0, None, GRID, eb.SolveOptions(tol=1e-7))
    assert rep.converged and rep.sandwich_ok
    assert calls == []


@pytest.mark.parametrize(
    "op",
    [
        eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0),
        eb.EllipticOperator.p_laplacian(3.0),
        eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5),
    ],
    ids=["pucci_minus", "p_laplacian_3", "pucci_minus_alpha_0.5"],
)
def test_solve_general_converges_0_001_below_the_smaller_eigenvalue(op):
    # this close to the threshold u is nearly a multiple of the eigenvector,
    # so the Newton solve from the subsolution U = -t phi needs a few steps
    grid = eb.build_grid(1.0, 2, 401)
    coeff = SIGN_CHANGING
    lam = min(eb.lambda_up(op, coeff, grid).lambda_lo,
              eb.lambda_down(op, coeff, grid).lambda_lo) - 0.001
    rep = eb.solve_general(op, coeff, lam, None, grid, eb.SolveOptions(tol=1e-7))
    assert rep.converged and rep.sandwich_ok
    assert rep.iterations <= 4


def test_solve_general_names_the_bracket_above_the_shift():
    # Pucci- (1, 2) on c = -1 - r^2 has lambda_bar_- ~ 1.384 < 1.5 <
    # lambda_bar_+ ~ 1.613: only the down bracket rules the shift out
    coeff = SIGN_CHANGING
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0)
    assert eb.lambda_down(op, coeff, GRID).lambda_hi < 1.5
    assert eb.lambda_up(op, coeff, GRID).lambda_lo > 1.5
    with pytest.raises(eb.PreconditionError, match="below the down Collatz-Wielandt bracket"):
        eb.solve_general(op, coeff, 1.5, None, GRID)


# ------------------------ Collatz-Wielandt classifier -------------------------


def _criterion_3_band():
    bound = eb.beta2_upper_bound(2, 1.0, 2.0, 0.0, 1.0, 0.25, 4.0, 10.0)
    params = eb.build_params(2, 1.0, 2.0, 0.0, 1.0, 0.25, 4.0, 10.0, bound / 2.0)
    return eb.default_c_band(params)


@pytest.mark.parametrize(
    "op, c",
    [
        (LAP, -1.0),  # criterion 1
        (eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0), "band"),  # criterion 3
        (LAP, lambda r: -1.0 - r**2),
    ],
    ids=["criterion_1", "criterion_3", "laplacian_c_r2"],
)
def test_cw_bracket_inside_bisection_bracket(op, c):
    c = _criterion_3_band() if c == "band" else c
    est = bracket(op, c, grid=eb.build_grid(1.0, 2, 401))
    cw_lo, cw_hi = est.cw_bracket
    assert est.lambda_lo <= cw_lo <= cw_hi <= est.lambda_hi
    assert cw_hi - cw_lo <= 1e-8
    assert (est.summary()["cw_lo"], est.summary()["cw_hi"]) == (cw_lo, cw_hi)
    # the two envelope ends and the two bracket ends, all read off the
    # bracket, and a bracket of the default width centred on its midpoint
    assert [p[2] for p in est.probes] == ["cw"] * 4
    assert [p[0] for p in est.probes[2:]] == [est.lambda_lo, est.lambda_hi]
    assert est.midpoint == pytest.approx(0.5 * (cw_lo + cw_hi), abs=1e-12)
    c_inf = est.probes[1][0] - 1.0  # the upper envelope end is |c|_inf + 1
    assert est.width == pytest.approx(1e-3 * (1.0 + c_inf), rel=1e-9)


@pytest.mark.parametrize(
    "op, c, sign",
    [
        (LAP, lambda r: -1.0 - r**2, "up"),
        (eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0), lambda r: -1.0 - r**2, "down"),
    ],
    ids=["laplacian_up", "pucci_minus_down"],
)
def test_cw_probes_replay_with_monotone_iteration(op, c, sign):
    est = bracket(op, c, sign=sign, bracket_width=0.02)
    coeff = eb.CoefficientField(b=0.0, c=c, g=0.0)
    g = -1.0 if sign == "up" else 1.0
    cw_probes = [p for p in est.probes if p[2] == "cw"]
    assert cw_probes
    for lam, verdict, _ in cw_probes:
        rep = eb.monotone_iteration(op, coeff, lam, g, GRID,
                                    eb.SolveOptions(max_iter=400_000), direction=sign)
        assert rep.verdict.value == verdict, lam


def test_cw_guard_covers_the_rounding_of_cancelling_terms():
    # Pucci- (0.5, 3) in N = 2 has Q = w_tan tl - w_rad / h = 0 exactly in
    # the row where 2 i a = (N - 1) A; the residual computes the two terms
    # apart, so their rounding survives where phi falls by orders of
    # magnitude from the row's neighbour.  Every rho_i is within the guard
    # of rho_i evaluated in exact arithmetic at the same phi.
    from fractions import Fraction

    from eigenball.eigen import _collatz_wielandt
    from eigenball.solver import _Driver

    op = eb.EllipticOperator.pucci_minus(0.5, 3.0, 0.0)
    coeff = eb.CoefficientField(b=0.0, c=lambda r: -1.0 - r**2, g=-1.0)
    grid = eb.build_grid(10.0, 2, 11)
    cw = _collatz_wielandt(op, coeff, grid, "up")
    driver = _Driver(op, grid, None, -1.0 - grid.nodes**2)
    res, (_, w_rad, w_tan, *_) = driver.residual(0.0, cw.phi)
    phi, h = [Fraction(x) for x in cw.phi], Fraction(grid.h)
    s = [(phi[i + 1] - phi[i]) / h for i in range(grid.n - 1)]
    wp = [-s[0]] + s + [-s[-1]]
    for i in range(grid.n):
        wr, wl = wp[i + 1], wp[i]
        exact = (
            Fraction(w_rad[i]) * (wr - wl) / h
            + Fraction(w_tan[i]) * (Fraction(driver.tr[i]) * wr + Fraction(driver.tl[i]) * wl)
            + Fraction(driver.c_eff[i]) * phi[i]
        )
        assert abs(Fraction(res[i]) - exact) / phi[i] <= cw.guard, i


@pytest.mark.parametrize("alpha, R", [(-0.5, 3.0), (0.5, 3.0), (1.0, 10.0)])
def test_cw_guard_covers_the_rounding_of_nonzero_alpha_terms(alpha, R):
    # rho_i = -G(phi)_i / phi_i^{alpha+1} against its value in 200-bit
    # arithmetic at the same phi and gradient floor delta.  For alpha = 1
    # row 6 of Pucci- (0.5, 3) has Q = 0 exactly, and on R = 10 phi falls to
    # 1e-12, so rho_i there is off by 1e10 eps |rho_i|
    import mpmath

    from eigenball.eigen import _collatz_wielandt
    from eigenball.solver import _Driver

    op = eb.EllipticOperator.pucci_minus(0.5, 3.0, alpha)
    coeff = eb.CoefficientField(b=0.0, c=lambda r: -1.0 - r**2, g=-1.0)
    grid = eb.build_grid(R, 2, 11)
    cw = _collatz_wielandt(op, coeff, grid, "up")
    driver = _Driver(op, grid, None, -1.0 - grid.nodes**2)
    res, (_, w_rad, w_tan, _, delta, _) = driver.residual(0.0, cw.phi)
    rho = -res / cw.phi ** (alpha + 1.0)
    with mpmath.workprec(200):
        mpf = mpmath.mpf
        phi, h, a, d = [mpf(x) for x in cw.phi], mpf(grid.h), mpf(alpha), mpf(delta)

        def flux(s):
            m = abs(s) if abs(s) >= d else (s * s + d * d) / (2 * d)
            return m**a * s

        w = [flux((phi[i + 1] - phi[i]) / h) for i in range(grid.n - 1)]
        wp = [-w[0]] + w + [-w[-1]]
        for i in range(grid.n):
            wr, wl = wp[i + 1], wp[i]
            exact = (
                mpf(w_rad[i]) * (wr - wl) / ((a + 1) * h)
                + mpf(w_tan[i]) * (mpf(driver.tr[i]) * wr + mpf(driver.tl[i]) * wl)
                + mpf(driver.c_eff[i]) * phi[i] ** (a + 1)
            )
            assert abs(mpf(rho[i]) + exact / phi[i] ** (a + 1)) <= cw.guard, i


@pytest.mark.parametrize("n", [101, 201, 401])
@pytest.mark.parametrize(
    "R, c, exact",
    [
        (10.0, lambda r: -1.0 - r**2, 3.0),
        (5.0, lambda r: 0.5 - 3.0 * r**2, 2.0 * np.sqrt(3.0) - 0.5),
    ],
    ids=["R10", "R5"],
)
def test_cw_bracket_on_a_large_ball(R, c, exact, n):
    # the 2-D harmonic oscillator -Laplacian + w^2 r^2 has ground energy 2w,
    # so lambda_bar = 3 for c = -1 - r^2 and 2 sqrt(3) - 1/2 for
    # c = 0.5 - 3 r^2.  phi decays to rounding level in the tail, where the
    # guard |L||phi| / phi of each row stays small (a guard scaled by
    # 1/min phi made these brackets 0.07-0.32 wide, or exit 2)
    est = bracket(LAP, c, grid=eb.build_grid(R, 2, n), bracket_width=0.02)
    assert est.lambda_lo <= exact <= est.lambda_hi
    assert est.width == pytest.approx(0.02, abs=1e-12)
    assert [p[2] for p in est.probes] == ["cw"] * 4


MONOTONE_PROBE_OPS = {
    **NEGATIVE_ALPHA_OPS,
    "p_laplacian_4": eb.EllipticOperator.p_laplacian(4.0),
    "p_laplacian_5": eb.EllipticOperator.p_laplacian(5.0),
    "pucci_minus_alpha_0.5": eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5),
    "pucci_plus_alpha_0.5": eb.EllipticOperator.pucci_plus(1.0, 2.0, 0.5),
    "pucci_minus_alpha_1": eb.EllipticOperator.pucci_minus(1.0, 2.0, 1.0),
    "pucci_plus_alpha_1": eb.EllipticOperator.pucci_plus(1.0, 2.0, 1.0),
}


@pytest.mark.parametrize(
    "name, sign",
    [(name, sign) for name in sorted(NEGATIVE_ALPHA_OPS) for sign in ("up", "down")]
    + [("p_laplacian_4", "up"), ("p_laplacian_5", "up")]
    + [(f"pucci_{kind}_alpha_{a}", "up") for kind in ("minus", "plus") for a in ("0.5", "1")],
)
def test_monotone_bracket_ends_replay(name, sign):
    # every alpha != 0 estimate reads its ends off the Collatz-Wielandt
    # bracket, and both replay with the monotone iteration, whose inner
    # solves stop at the rounding floor of their own bands.  For alpha >= 2
    # the bands grow like |u'|^alpha / h^2, so a floor read off an earlier
    # run's blown-up iterate would accept every step at once
    op = MONOTONE_PROBE_OPS[name]
    est = bracket(op, lambda r: -1.0 - r**2, sign=sign, bracket_width=0.02)
    assert est.cw_bracket is not None
    assert {p[2] for p in est.probes} == {"cw"}
    assert np.isfinite([est.lambda_lo, est.lambda_hi]).all()
    assert est.width <= 0.02
    coeff = eb.CoefficientField(b=0.0, c=lambda r: -1.0 - r**2, g=0.0)
    g = -1.0 if sign == "up" else 1.0
    opts = eb.SolveOptions(max_iter=400_000)
    for lam, verdict in ((est.lambda_lo, eb.Verdict.CONVERGED), (est.lambda_hi, eb.Verdict.UNBOUNDED)):
        rep = eb.monotone_iteration(op, coeff, lam, g, GRID, opts, direction=sign)
        assert rep.verdict is verdict, lam
        assert rep.monotone, lam


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("sign", ["up", "down"])
@pytest.mark.parametrize(
    "op",
    [
        LAP,
        eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0),
        eb.EllipticOperator.p_laplacian(3.0),
        eb.EllipticOperator.pucci_minus(1.0, 2.0, -0.5),
        eb.EllipticOperator.pucci_plus(1.0, 2.0, 1.0),
    ],
    ids=["laplacian", "pucci_minus", "p_laplacian_3", "pucci_minus_alpha_-0.5",
         "pucci_plus_alpha_1"],
)
def test_cw_estimate_makes_no_monotone_run(monkeypatch, op, sign, N):
    calls = _count_monotone_runs(monkeypatch)
    est = bracket(op, lambda r: -1.0 - r**2, grid=eb.build_grid(1.0, N, 101), sign=sign,
                  bracket_width=0.02)
    assert est.cw_bracket is not None
    assert calls == []
    assert {p[2] for p in est.probes} == {"cw"}


def test_cw_rounds_stop_within_twice_the_guard(monkeypatch):
    # round 1 leaves this alpha = -0.5 bracket within 1.5 guards, inside the
    # rounding of rho; a second round crept for 4,852 Newton steps
    from eigenball import solver

    original = solver._Driver.solve
    steps = []

    def counted(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        steps.append(out[5])
        return out

    monkeypatch.setattr(solver._Driver, "solve", counted)
    est = bracket(eb.EllipticOperator.pucci_minus(1.0, 2.0, -0.5), lambda r: -1.0 - r**2,
                  grid=eb.build_grid(1.0, 3, 401))
    assert est.lambda_lo < est.lambda_hi
    assert sum(steps) <= 50


def test_envelope_end_in_cw_guard_band_raises_bracket_error(monkeypatch):
    # a guard wide enough to cover the upper end |c|_inf + 1 = 2 leaves that
    # end undecided by the bracket; no monotone run stands in for it
    from dataclasses import replace

    from eigenball import eigen

    original = eigen._collatz_wielandt
    monkeypatch.setattr(eigen, "_collatz_wielandt", lambda *a: replace(original(*a), guard=1.5))
    with pytest.raises(eb.BracketError, match="rounding guard"):
        bracket(LAP, -1.0)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    with pytest.raises(eb.BracketError, match="rounding guard"):
        eb.eigenfunction_up(LAP, coeff, 0.0, GRID)
    # a bracket that places the upper end below the threshold fails the check
    monkeypatch.setattr(eigen, "_collatz_wielandt",
                        lambda *a: replace(original(*a), lo=5.0, hi=5.0))
    with pytest.raises(eb.BracketError, match="configuration error"):
        bracket(LAP, -1.0)


@pytest.mark.parametrize(
    "kw",
    [{"g_scale": 0.0}, {"g_scale": -1.0}, {"g_scale": float("nan")}, {"g_scale": float("inf")},
     {"bracket_width": 0.0}, {"bracket_width": float("nan")}],
    ids=["g_scale-0", "g_scale-neg", "g_scale-nan", "g_scale-inf", "width-0", "width-nan"],
)
def test_eigen_options_reject_bad_values(kw):
    with pytest.raises(ValueError):
        eb.EigenOptions(**kw)


def test_probe_only_options_are_deprecated():
    for name, value in (("g_scale", 2.0), ("max_outer", 1), ("inner_max_iter", 1),
                        ("U_max", 10.0)):
        with pytest.warns(DeprecationWarning, match=name):
            eb.EigenOptions(**{name: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eb.EigenOptions(bracket_width=0.1, tol=1e-8, eig_residual_tol=1.0)


def test_nonzero_alpha_uses_only_cw_probes():
    # c = -1 has lambda = 1 with eigenfunction 1 for every operator: the
    # envelope ends and the bracket ends read off the bracket
    op = eb.EllipticOperator.p_laplacian(3.0)
    est = bracket(op, -1.0, grid=eb.build_grid(1.0, 2, 51), bracket_width=0.1)
    cw_lo, cw_hi = est.cw_bracket
    assert (est.summary()["cw_lo"], est.summary()["cw_hi"]) == (cw_lo, cw_hi)
    assert cw_lo <= 1.0 <= cw_hi and cw_hi - cw_lo <= 1e-8
    assert [p[2] for p in est.probes] == ["cw"] * 4
    assert est.lambda_lo < 1.0 < est.lambda_hi
    assert np.abs(est.eigenfunction.values - 1.0).max() < 1e-9


def rayleigh_minimum(p, c, grid):
    """Minimum over positive u = e^z of the discrete Rayleigh quotient
    (sum r_{i+1/2}^{N-1} h |D+u|^p - sum vol_i c_i u_i^p) / sum vol_i u_i^p,
    with finite-volume cell volumes (half cells at both ends)."""
    r, h, N = grid.nodes, grid.h, grid.N_dim
    edges = np.concatenate(([0.0], r[:-1] + h / 2, [grid.R]))
    vol = np.diff(edges**N) / N
    flux_w = (r[:-1] + h / 2) ** (N - 1) * h
    cvol = c(r) * vol

    def quotient(z):
        u = np.exp(z)
        s = np.diff(u) / h
        den = vol @ u**p
        q = (flux_w @ np.abs(s) ** p - cvol @ u**p) / den
        ds = p * flux_w * np.abs(s) ** (p - 1) * np.sign(s) / h
        dq = p * (-cvol - q * vol) * u ** (p - 1)
        dq[:-1] -= ds
        dq[1:] += ds
        return q, dq / den * u

    return minimize(quotient, np.zeros(grid.n), jac=True, method="L-BFGS-B").fun


def test_plaplacian_bracket_contains_rayleigh_minimum():
    # in N = 2 the p-Laplacian's flux form is the Euler-Lagrange equation of
    # the discrete Rayleigh quotient at every node but r = R, so its
    # threshold is the quotient's minimum up to that boundary row
    def c(r):
        return -1.0 - r**2

    grid = eb.build_grid(1.0, 2, 101)
    ref = rayleigh_minimum(3.0, c, grid)
    assert ref == pytest.approx(1.461894, abs=1e-6)
    est = bracket(eb.EllipticOperator.p_laplacian(3.0), c, grid=grid, bracket_width=0.02)
    assert est.lambda_lo <= ref <= est.lambda_hi


@pytest.mark.parametrize("n", [101, 201, 401])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 5.0])
def test_plaplacian_cw_bracket_meets_rayleigh_minimum(p, n):
    # the Collatz-Wielandt bracket of the flux form matches the discrete
    # Rayleigh minimum up to the boundary row r = R (1.1e-5 at n = 101 for
    # p = 3) and the optimizer's tolerance
    def c(r):
        return -1.0 - r**2

    grid = eb.build_grid(1.0, 2, n)
    ref = rayleigh_minimum(p, c, grid)
    est = bracket(eb.EllipticOperator.p_laplacian(p), c, grid=grid, bracket_width=0.02)
    cw_lo, cw_hi = est.cw_bracket
    assert est.lambda_lo <= ref <= est.lambda_hi
    assert cw_lo - 2e-5 <= ref <= cw_hi + 2e-5
    assert est.width <= 0.02


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    a0=st.floats(-3.0, 2.0),
    a2=st.floats(-5.0, 0.0),
    kind=st.sampled_from(["laplacian", "pucci_minus", "pucci_plus"]),
    N=st.sampled_from([2, 3]),
    sign=st.sampled_from(["up", "down"]),
)
def test_monotone_verdicts_agree_with_cw_bracket(a0, a2, kind, N, sign):
    # the shifted iteration stays bounded below the CW bracket and escapes
    # above it, with monotone iterates, for sign-changing c as well
    from eigenball.eigen import _collatz_wielandt

    op = LAP if kind == "laplacian" else getattr(eb.EllipticOperator, kind)(1.0, 2.0)
    grid = eb.build_grid(1.0, N, 51)
    coeff = eb.CoefficientField(b=0.0, c=lambda r: a0 + a2 * r**2, g=0.0)
    cw = _collatz_wielandt(op, coeff, grid, sign)
    assert cw is not None
    g = -1.0 if sign == "up" else 1.0
    opts = eb.SolveOptions(max_iter=400_000)
    for lam, verdict in ((cw.lo - 0.2, eb.Verdict.CONVERGED), (cw.hi + 0.2, eb.Verdict.UNBOUNDED)):
        rep = eb.monotone_iteration(op, coeff, lam, g, grid, opts, direction=sign)
        assert rep.verdict is verdict, lam
        assert rep.monotone, lam


def test_three_dimensional_pucci_has_cw_bracket():
    # in R^3 the central tangential term would give the first interior row of
    # Pucci (a = 1, A = 2) the lower off-diagonal (a - A) / h^2 < 0 under the
    # mixed policy; the one-sided rows keep the stencil monotone, so the CW
    # bracket is available and its verdicts replay with the monotone iteration
    from eigenball.eigen import _collatz_wielandt

    def c(r):
        return -1.0 - r**2

    grid = eb.build_grid(1.0, 3, 101)
    coeff = eb.CoefficientField(b=0.0, c=c, g=0.0)
    opts = eb.SolveOptions(max_iter=400_000)
    for kind in ("pucci_minus", "pucci_plus"):
        op = getattr(eb.EllipticOperator, kind)(1.0, 2.0, 0.0)
        cw = _collatz_wielandt(op, coeff, grid, "up")
        assert cw is not None, kind
        below = eb.monotone_iteration(op, coeff, cw.lo - 0.01, -1.0, grid, opts)
        assert below.verdict is eb.Verdict.CONVERGED, kind
        above = eb.monotone_iteration(op, coeff, cw.hi + 0.01, -1.0, grid, opts)
        assert above.verdict is eb.Verdict.UNBOUNDED, kind
        est = bracket(op, c, grid=grid, bracket_width=0.02)
        assert est.lambda_lo <= cw.lo <= cw.hi <= est.lambda_hi, kind


def test_drift_keeps_the_stencil_monotone():
    # with h|b| > 2 min w_rad the centred drift would make an off-diagonal
    # negative; the upwind rows keep every policy's stencil monotone, so even
    # b = 300 gets a CW bracket both ways, its ends replay with the monotone
    # iteration, and every probe reads off it
    from eigenball.eigen import _collatz_wielandt

    def c(r):
        return -1.0 - r**2

    strong = eb.CoefficientField(b=300.0, c=c, g=0.0)
    opts = eb.SolveOptions(max_iter=400_000)
    for sign, g in (("up", -1.0), ("down", 1.0)):
        cw = _collatz_wielandt(LAP, strong, GRID, sign)
        assert cw is not None, sign
        below = eb.monotone_iteration(LAP, strong, cw.lo - 0.01, g, GRID, opts, direction=sign)
        assert below.verdict is eb.Verdict.CONVERGED, sign
        above = eb.monotone_iteration(LAP, strong, cw.hi + 0.01, g, GRID, opts, direction=sign)
        assert above.verdict is eb.Verdict.UNBOUNDED, sign
    est = eb.lambda_up(LAP, strong, GRID, eb.EigenOptions(bracket_width=0.1))
    assert est.cw_bracket is not None
    assert {p[2] for p in est.probes} == {"cw"}
    mild = eb.CoefficientField(b=lambda r: 0.3 * r, c=c, g=0.0)
    cw = _collatz_wielandt(LAP, mild, GRID, "up")
    assert cw is not None and cw.hi - cw.lo <= 1e-8
