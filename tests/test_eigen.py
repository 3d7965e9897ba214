import numpy as np
import pytest
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
    # replacing the probe data -1 by -10 leaves the bracket unchanged
    c = lambda r: -1.0 - 0.5 * np.sin(3.0 * r)
    est1 = bracket(LAP, c, g_scale=1.0, bracket_width=0.02)
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
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
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


def test_solve_general_rejects_shift_above_threshold():
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=1.0)
    with pytest.raises(eb.PreconditionError):
        eb.solve_general(LAP, coeff, 1.5, None, GRID)


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
    # only the two envelope ends are monotone-iteration runs
    assert [p[2] for p in est.probes[:2]] == ["monotone", "monotone"]
    assert {p[2] for p in est.probes[2:]} == {"cw"}


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


def test_probe_in_guard_band_runs_monotone_iteration():
    from eigenball.eigen import _classify, _CWBracket

    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    # a stand-in bracket [0.5, 0.6] with guard 0.1; the true threshold is 1
    cw = _CWBracket(lo=0.5, hi=0.6, guard=0.1, phi=np.ones(GRID.n))
    g = np.full(GRID.n, -1.0)
    args = (GRID, eb.EigenOptions(), eb.SolveWorkspace(), "up", cw)
    verdict, rep, how = _classify(LAP, coeff, 0.45, g, *args)
    assert (verdict, how) == (eb.Verdict.CONVERGED, "monotone")
    assert rep.verdict is eb.Verdict.CONVERGED
    verdict, rep, how = _classify(LAP, coeff, 0.35, g, *args)
    assert (verdict, rep, how) == (eb.Verdict.CONVERGED, None, "cw")
    verdict, rep, how = _classify(LAP, coeff, 0.75, g, *args)
    assert (verdict, rep, how) == (eb.Verdict.UNBOUNDED, None, "cw")


def test_nonzero_alpha_uses_only_monotone_probes():
    op = eb.EllipticOperator.p_laplacian(3.0)
    est = bracket(op, -1.0, grid=eb.build_grid(1.0, 2, 51), bracket_width=0.1)
    assert est.cw_bracket is None
    assert est.summary()["cw_lo"] is None and est.summary()["cw_hi"] is None
    assert {p[2] for p in est.probes} == {"monotone"}
    assert len(est.probes) == 9
    assert est.lambda_lo < 1.0 < est.lambda_hi


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
        ds = p * flux_w * np.abs(s) ** (p - 2) * s / h
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


def test_drift_breaks_the_monotone_stencil():
    # with h|b| > 2 min w_rad the drift makes an off-diagonal negative, so the
    # CW bracket is refused and every probe is a monotone-iteration run;
    # a mild drift keeps the stencil monotone
    from eigenball.eigen import _collatz_wielandt

    def c(r):
        return -1.0 - r**2

    strong = eb.CoefficientField(b=300.0, c=c, g=0.0)
    assert _collatz_wielandt(LAP, strong, GRID, "up") is None
    est = eb.lambda_up(LAP, strong, GRID, eb.EigenOptions(bracket_width=0.1))
    assert est.cw_bracket is None
    assert {p[2] for p in est.probes} == {"monotone"}
    mild = eb.CoefficientField(b=lambda r: 0.3 * r, c=c, g=0.0)
    cw = _collatz_wielandt(LAP, mild, GRID, "up")
    assert cw is not None and cw.hi - cw.lo <= 1e-8
