import numpy as np
import pytest

import eigenball as eb
from eigenball import solver
from eigenball.operators import gradient_floor
from eigenball.solver import Verdict, _Driver

from conftest import nested_solve


LAP = eb.EllipticOperator.laplacian()


# -------------------------------- residual -----------------------------------


def test_residual_constant_solution():
    g = eb.build_grid(1.0, 2, 51)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    res = eb.residual(LAP, coeff, 0.0, None, eb.GridFunction.constant(g, 1.0))
    assert res.sup_norm() == 0.0


def test_residual_cubic_zero_order():
    g = eb.build_grid(1.0, 2, 51)
    op = eb.EllipticOperator.p_laplacian(4.0)  # alpha = 2
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-8.0)
    res = eb.residual(op, coeff, 0.0, None, eb.GridFunction.constant(g, 2.0))
    assert res.sup_norm() == pytest.approx(0.0, abs=1e-12)


def test_residual_quadratic_interior():
    g = eb.build_grid(1.0, 3, 51)
    coeff = eb.CoefficientField(b=0.0, c=0.0, g=0.0)
    u = eb.GridFunction(g, g.nodes**2)
    res = eb.residual(LAP, coeff, 0.0, None, u)
    # Delta(|x|^2) = 2N in the interior; the boundary stencil imposes the
    # Neumann condition instead
    assert np.allclose(res.values[:-1], 6.0, atol=1e-8)


def test_residual_vanishes_on_manufactured_solution_every_grid(mfg2d):
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=mfg2d.laplacian_forcing())
    for n in (31, 63, 127):
        g = eb.build_grid(1.0, 2, n)
        u = eb.GridFunction(g, mfg2d.u(g.nodes))
        res = eb.residual(LAP, coeff, 0.0, None, u)
        assert res.sup_norm() < 30.0 * g.h**2


WEIGHT_OPERATORS = {
    "laplacian": LAP,
    **{
        f"{kind}_a{alpha:+g}": getattr(eb.EllipticOperator, kind)(1.0, 2.0, alpha)
        for kind in ("pucci_minus", "pucci_plus")
        for alpha in (0.0, 0.5, -0.5)
    },
    "p_laplacian_p2": eb.EllipticOperator.p_laplacian(2.0),
    "p_laplacian_p3": eb.EllipticOperator.p_laplacian(3.0),
    "anisotropic": eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=2.5, c0=0.5,
        b1_profile=lambda r: 1.5 + 0.25 * np.cos(np.pi * r),
        b2_profile=lambda r: 0.5 * r,
    ),
}


def one_sided_rows(op, g):
    """Rows where the mean flux would weigh u_{i-1} negatively under some
    policy: 2i min w_rad < (alpha+1)(N-1) max w_tan, ends excluded."""
    pos, neg = (op.second_order_weights(x, x, g.nodes) for x in (1.0, -1.0))
    w_rad_min = np.minimum(pos[0], neg[0])
    w_tan_max = np.maximum(pos[1], neg[1])
    i = np.arange(g.n)
    rows = (i > 0) & (i < g.n - 1)
    rows &= 2 * i * w_rad_min < (op.alpha + 1) * (g.N_dim - 1) * w_tan_max
    return rows


def flux_reference(op, coeff, u):
    """Pointwise reference of the alpha != 0 flux form: the half-node fluxes
    w = |s|^alpha s with odd ghost fluxes, radial eigenvalue D/(alpha+1),
    tangential eigenvalue M/r (D at r = 0, 0 at r = R, w_{i+1/2}/r_{i+1/2}
    in the one-sided rows) and drift b M, weighted by the operator's own
    second-order weights."""
    g = u.grid
    r, h, N, alpha = g.nodes, g.h, g.N_dim, op.alpha
    s = np.diff(u.values) / h
    delta = 1e-8 * (1.0 + u.sup_norm() / g.R)
    w = gradient_floor(np.abs(s), delta) ** alpha * s
    wr = np.append(w, -w[-1])
    wl = np.insert(w, 0, -w[0])
    D = (wr - wl) / h
    M = (wr + wl) / 2.0
    tangential = np.empty_like(r)
    tangential[1:-1] = M[1:-1] / r[1:-1]
    tangential[0], tangential[-1] = D[0], 0.0
    rows = one_sided_rows(op, g)
    tangential[rows] = wr[rows] / (r[rows] + h / 2)
    radial = D / (alpha + 1)
    w_rad, w_tan = op.second_order_weights(radial, tangential, r)
    b, c, data = coeff.sample(r)
    zero_order = c * np.sign(u.values) * np.abs(u.values) ** (alpha + 1)
    return w_rad * radial + (N - 1) * w_tan * tangential + b * M + zero_order - data


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", sorted(WEIGHT_OPERATORS))
def test_residual_matches_pointwise_operator(name, N):
    # the solver's second-order weights against the operator's own pointwise
    # evaluation, node by node, on a state with both Hessian-eigenvalue signs:
    # on the discrete derivatives for alpha = 0 (with the forward difference
    # 2(u_{i+1} - u_i)/(r_{i+1}^2 - r_i^2) as tangential value in the
    # one-sided rows), on the flux form otherwise
    op = WEIGHT_OPERATORS[name]
    g = eb.build_grid(1.0, N, 101)
    r = g.nodes
    coeff = eb.CoefficientField(b=lambda r: 0.3 * r, c=lambda r: -1.0 - r**2, g=0.0)
    u = eb.GridFunction(g, 2.0 + np.cos(np.pi * r) + 0.3 * np.sin(2.0 * np.pi * r))
    res = eb.residual(op, coeff, 0.0, None, u).values
    if op.alpha != 0.0:
        ref = flux_reference(op, coeff, u)
    else:
        u1, u2 = (d.values for d in eb.discrete_derivatives(u))
        tangential = np.empty_like(r)
        tangential[1:-1] = u1[1:-1] / r[1:-1]
        tangential[0], tangential[-1] = u2[0], 0.0
        rows = np.flatnonzero(one_sided_rows(op, g))
        tangential[rows] = 2 * (u.values[rows + 1] - u.values[rows]) / (
            r[rows + 1] ** 2 - r[rows] ** 2)
        ref = eb.eval_radial_G(op, coeff, r, u.values, u1, u2, 0.0, N,
                               tangential=tangential)
    assert np.abs(res - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", sorted(WEIGHT_OPERATORS))
def test_flux_form_bands_are_monotone(name, N):
    # the Jacobian has nonnegative off-diagonals on every iterate, whatever
    # the Pucci policy: the scheme is monotone, for alpha = 0 too
    g = eb.build_grid(1.0, N, 101)
    driver = _Driver(WEIGHT_OPERATORS[name], g, None, -1.0 - g.nodes**2)
    rng = np.random.default_rng(N)
    for _ in range(50):
        v = rng.uniform(-2.0, 2.0, g.n) * rng.uniform(0.0, 1.0)
        _, aux = driver.residual(0.0, v)
        lower, _, upper = driver._bands(v, aux)
        assert lower.min() >= 0.0 and upper.min() >= 0.0


# ------------------------------ solve_neumann --------------------------------


def test_solve_constant():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    rep = eb.solve_neumann(LAP, coeff, 0.0, None, g)
    assert rep.converged and not rep.bound_violation
    assert np.abs(rep.solution.values - 1.0).max() < 1e-8
    assert rep.barrier_ok


def test_solve_manufactured_order_two(mfg2d):
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=mfg2d.laplacian_forcing())
    errs = []
    for n in (51, 101, 201):
        g = eb.build_grid(1.0, 2, n)
        rep = eb.solve_neumann(LAP, coeff, 0.0, None, g)
        assert rep.converged
        errs.append(np.abs(rep.solution.values - mfg2d.u(g.nodes)).max())
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.5 <= e1 / e2 <= 4.5


def test_solve_pucci_barrier_bound():
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0)
    coeff = eb.CoefficientField(b=0.0, c=-2.0, g=-3.0)
    g = eb.build_grid(1.0, 2, 201)
    rep = eb.solve_neumann(op, coeff, 0.5, None, g)
    assert rep.converged
    # effective coercivity c0 = 1.5, so |u| <= (3/1.5)^{1/(alpha+1)} = 2
    assert rep.solution.sup_norm() <= 2.0 + 1e-6
    assert rep.barrier_ok


def test_solve_precondition_rejection_lists_nodes():
    g = eb.build_grid(1.0, 2, 51)
    coeff = eb.CoefficientField(b=0.0, c=lambda r: r - 0.5, g=0.0)
    with pytest.raises(eb.PreconditionError) as exc:
        eb.solve_neumann(LAP, coeff, 0.0, None, g)
    msg = str(exc.value)
    assert "c + lambda" in msg and "r=" in msg


def test_solve_unique_from_random_initial_guesses():
    g = eb.build_grid(1.0, 2, 201)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=lambda r: -1.0 - np.cos(2.0 * r))
    tol = 1e-9
    rng = np.random.default_rng(42)
    sols = []
    for _ in range(3):
        init = rng.uniform(-2.0, 2.0, g.n)
        rep = eb.solve_neumann(
            LAP, coeff, 0.0, None, g, eb.SolveOptions(tol=tol, initial=init)
        )
        assert rep.converged
        sols.append(rep.solution.values)
    for i in range(3):
        for j in range(i):
            assert np.abs(sols[i] - sols[j]).max() <= 2.0 * tol


def test_solve_with_drift_term():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.7, c=-1.0, g=-1.0)
    rep = eb.solve_neumann(LAP, coeff, 0.0, None, g)
    assert rep.converged
    # constants still solve the problem (drift term vanishes on constants)
    assert np.abs(rep.solution.values - 1.0).max() < 1e-8


def test_solve_plaplacian_manufactured(mfg2d):
    op = eb.EllipticOperator.p_laplacian(3.0)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=mfg2d.plap_forcing(3.0))
    grids = [eb.build_grid(1.0, 2, n) for n in (51, 101)]
    reps = nested_solve(op, coeff, 0.0, None, grids)
    for rep, g in zip(reps, grids):
        assert rep.converged
        assert np.abs(rep.solution.values - mfg2d.u(g.nodes)).max() < 40.0 * g.h**2


def test_solve_anisotropic_manufactured(mfg2d):
    b1v, b2v, c0 = 1.5, 0.5, -0.5
    op = eb.EllipticOperator.anisotropic(1.0, 2.0, q=3.0, c0=c0,
                                         b1_profile=b1v, b2_profile=b2v)
    gprof = mfg2d.weighted_forcing(b1v + c0 * b2v**2, b1v, alpha=1.0)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=gprof)
    grids = [eb.build_grid(1.0, 2, n) for n in (51, 101)]
    reps = nested_solve(op, coeff, 0.0, None, grids)
    assert all(rep.converged for rep in reps)
    err = np.abs(reps[-1].solution.values - mfg2d.u(grids[-1].nodes)).max()
    assert err < 1e-2


def test_solve_singular_exponent_constant():
    op = eb.EllipticOperator.p_laplacian(1.5)  # alpha = -0.5
    g = eb.build_grid(1.0, 2, 101)
    rep = eb.solve_neumann(op, eb.CoefficientField(c=-1.0, g=-1.0), 0.0, None, g)
    assert rep.converged
    assert rep.solution.sup_norm() == pytest.approx(1.0, abs=1e-7)


def test_plaplacian_converges_through_critical_points():
    # u' vanishes at r = 0 and r = R, where u is only C^{1,beta}; the flux
    # form holds there, so p = 3 converges and u(0) settles under refinement
    op = eb.EllipticOperator.p_laplacian(3.0)
    coeff = eb.CoefficientField(
        b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.5 * np.cos(np.pi * r)
    )
    reps = [eb.solve_neumann(op, coeff, 0.0, None, eb.build_grid(1.0, 2, n))
            for n in (201, 401)]
    assert all(rep.converged and rep.barrier_ok for rep in reps)
    coarse, fine = (rep.solution.values[0] for rep in reps)
    assert abs(coarse - fine) <= 1e-5


def test_non_convergence_is_reported_not_hidden():
    # absurdly tight tolerance below the double-precision stencil floor
    g = eb.build_grid(1.0, 2, 401)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=lambda r: -1.0 - np.sin(5 * r))
    rep = eb.solve_neumann(LAP, coeff, 0.0, None, g,
                           eb.SolveOptions(tol=1e-16, max_iter=200))
    assert not rep.converged
    assert rep.residual_sup > 1e-16


# ---------------------------- monotone_iteration -----------------------------


def test_monotone_fixed_point_constant():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    rep = eb.monotone_iteration(LAP, coeff, 0.0, None, g)
    assert rep.verdict is Verdict.CONVERGED
    assert rep.monotone
    assert np.abs(rep.final.values - 1.0).max() < 1e-6


def test_monotone_unbounded_above_threshold():
    # with c = 0 the threshold sits at zero, so any positive shift blows up
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=0.0, g=-1.0)
    rep = eb.monotone_iteration(LAP, coeff, 0.5, None, g)
    assert rep.verdict is Verdict.UNBOUNDED
    assert rep.sup_norms[-1] > 1e6


def test_monotone_limit_value_below_threshold():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    rep = eb.monotone_iteration(LAP, coeff, 0.5, None, g)
    assert rep.verdict is Verdict.CONVERGED
    # constants: (c + lambda) u = g gives u = 1/(1 - 0.5) = 2
    assert np.abs(rep.final.values - 2.0).max() < 1e-6


def test_monotone_iterates_nondecreasing_nonnegative():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=lambda r: -1.0 - 0.3 * r, g=0.0)
    rep = eb.monotone_iteration(
        LAP, coeff, 0.3, lambda r: -1.0 - 0.5 * r**2, g
    )
    assert rep.verdict is Verdict.CONVERGED
    assert rep.monotone
    assert all(m >= -1e-12 for m in rep.min_values)
    assert all(m > 0 for m in rep.min_values[1:])


def test_monotone_direction_down_mirrors():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    up = eb.monotone_iteration(LAP, coeff, 0.25, -1.0, g, direction="up")
    down = eb.monotone_iteration(LAP, coeff, 0.25, 1.0, g, direction="down")
    assert down.verdict is Verdict.CONVERGED and down.monotone
    # the Laplacian is odd, so the mirrored iterates are exact negations
    assert np.array_equal(down.final.values, -up.final.values)
    assert all(m <= 1e-12 for m in np.asarray(down.final.values))


def test_monotone_sign_preconditions():
    g = eb.build_grid(1.0, 2, 51)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=0.0)
    with pytest.raises(eb.PreconditionError, match="requires g <= 0"):
        eb.monotone_iteration(LAP, coeff, 0.0, 1.0, g, direction="up")
    with pytest.raises(eb.PreconditionError, match="requires g >= 0"):
        eb.monotone_iteration(LAP, coeff, 0.0, -1.0, g, direction="down")


def test_monotone_transition_is_monotone_in_lambda():
    # no converge/diverge/converge pattern across a shift sweep (the sweep
    # avoids the exact threshold 1.0, where neither verdict applies)
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    opts = eb.SolveOptions(tol=1e-8, max_iter=100_000)
    verdicts = []
    for lam in np.linspace(0.5, 1.5, 8):
        rep = eb.monotone_iteration(LAP, coeff, float(lam), None, g, opts)
        assert rep.verdict is not Verdict.MAX_ITER
        verdicts.append(rep.verdict is Verdict.CONVERGED)
    assert verdicts[0] and not verdicts[-1]
    assert sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b) == 1


def test_monotone_blowup_survives_large_scales():
    # inner tolerances rescale with the iterate size, so the run reaches the
    # blow-up threshold instead of dying in roundoff
    g = eb.build_grid(1.0, 2, 201)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    rep = eb.monotone_iteration(LAP, coeff, 1.2, None, g,
                                eb.SolveOptions(max_iter=10_000))
    assert rep.verdict is Verdict.UNBOUNDED
    assert rep.monotone


def test_workspace_reuse_is_equivalent():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    ws = eb.SolveWorkspace()
    a = eb.monotone_iteration(LAP, coeff, 0.5, None, g,
                              eb.SolveOptions(workspace=ws))
    b = eb.monotone_iteration(LAP, coeff, 0.5, None, g)
    assert np.array_equal(a.final.values, b.final.values)


# ------------------------------- step kernel ---------------------------------

STEP_OPERATORS = {
    "pucci_minus_a+0.5": eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5),
    "pucci_minus_a-0.5": eb.EllipticOperator.pucci_minus(1.0, 2.0, -0.5),
    "pucci_plus_a+0.5": eb.EllipticOperator.pucci_plus(1.0, 2.0, 0.5),
    "pucci_plus_a-0.5": eb.EllipticOperator.pucci_plus(1.0, 2.0, -0.5),
    "p_laplacian_p3": eb.EllipticOperator.p_laplacian(3.0),
    "anisotropic_q3": eb.EllipticOperator.anisotropic(
        1.0, 2.0, q=3.0, c0=0.5,
        b1_profile=lambda r: 1.5 + 0.25 * np.cos(np.pi * r),
        b2_profile=lambda r: 0.5 * r,
    ),
    **{k: op for k, op in WEIGHT_OPERATORS.items() if op.alpha == 0.0},
}


@pytest.mark.parametrize("name", sorted(STEP_OPERATORS))
def test_bands_match_finite_difference_jacobian(name):
    # the bands are the Jacobian of the residual, drift included; for
    # alpha = 0 that makes them the exact frozen-policy operator
    n = 51
    g = eb.build_grid(1.0, 2, n)
    r = g.nodes
    driver = _Driver(STEP_OPERATORS[name], g, np.full(n, 0.5), -1.0 - r**2)
    data = np.zeros(n)
    v = 2.0 + np.cos(np.pi * r)
    _, aux = driver.residual(data, v)
    lower, diag, upper = driver._bands(v, aux)
    eps = 1e-6
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        plus, _ = driver.residual(data, v + e)
        minus, _ = driver.residual(data, v - e)
        jac[:, j] = (plus - minus) / (2 * eps)
    # interior rows whose two half-node slopes lie above the gradient floors,
    # away from the Pucci switches D = 0 and T = 0 where the residual has a kink
    s = np.diff(v) / g.h
    w = np.abs(s) ** driver.alpha * s
    wr, wl = np.append(w, -w[-1]), np.insert(w, 0, -w[0])
    D = (wr - wl) / g.h
    T = driver.tr * wr + driver.tl * wl
    slope = np.minimum(np.abs(np.append(s, 0.0)), np.abs(np.insert(s, 0, 0.0)))
    rows = np.flatnonzero((slope > 1e-3) & (np.abs(D) > 0.1) & (np.abs(T) > 0.1))
    assert rows.size >= 40
    bands = np.stack([lower[rows - 1], diag[rows], upper[rows]])
    fd = np.stack([jac[rows, rows - 1], jac[rows, rows], jac[rows, rows + 1]])
    assert np.abs(bands - fd).max() <= 1e-6 * np.abs(bands).max()
    # the end rows, through the odd ghost fluxes
    ends = np.array([diag[0], upper[0], lower[-1], diag[-1]])
    fd_ends = np.array([jac[0, 0], jac[0, 1], jac[-1, -2], jac[-1, -1]])
    assert np.abs(ends - fd_ends).max() <= 1e-6 * np.abs(bands).max()
    outside = jac[rows].copy()
    for k in (-1, 0, 1):
        outside[np.arange(rows.size), rows + k] = 0.0
    assert not outside.any()


def test_ptc_reuses_bands_on_rejected_steps(monkeypatch):
    # a rejected step only halves dt, so it must not rebuild the bands: within
    # one pseudo-time run every _bands call is on a new (iterate, aux) pair
    calls = []
    runs = [0]
    attempts = [0]
    ptc, bands, gtsv = _Driver._ptc, _Driver._bands, solver._gtsv

    def counted_ptc(self, *args, **kwargs):
        runs[0] += 1
        return ptc(self, *args, **kwargs)

    def counted_bands(self, v, aux):
        calls.append((runs[0], v, aux))
        return bands(self, v, aux)

    def counted_gtsv(*args):
        attempts[0] += 1
        return gtsv(*args)

    monkeypatch.setattr(_Driver, "_ptc", counted_ptc)
    monkeypatch.setattr(_Driver, "_bands", counted_bands)
    monkeypatch.setattr(solver, "_gtsv", counted_gtsv)
    g = eb.build_grid(1.0, 2, 201)
    coeff = eb.CoefficientField(
        b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.5 * np.cos(np.pi * r)
    )
    rep = eb.solve_neumann(STEP_OPERATORS["pucci_minus_a-0.5"], coeff, 0.0, None, g)
    assert attempts[0] > rep.iterations  # some steps were rejected
    keys = [(run, id(v), id(aux)) for run, v, aux in calls]
    assert len(set(keys)) == len(keys)
