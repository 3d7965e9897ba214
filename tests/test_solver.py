import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def upwind_rows(op, g, b):
    """Rows where the centred drift b M would give a flux the wrong sign
    under some policy: P + b/2 < 0 or Q + b/2 > 0, P and Q the drift-free
    coefficients of w_{i+1/2} and w_{i-1/2}, P at the least weights and Q at
    the least radial and the largest tangential one; ends excluded."""
    pos, neg = (op.second_order_weights(x, x, g.nodes) for x in (1.0, -1.0))
    w_rad_min = np.minimum(pos[0], neg[0])
    w_tan_min = np.minimum(pos[1], neg[1])
    w_tan_max = np.maximum(pos[1], neg[1])
    inv_r = np.zeros(g.n)
    inv_r[1:] = 1.0 / g.nodes[1:]
    one_sided = one_sided_rows(op, g)
    # tangential coefficients of w_{i+1/2} and w_{i-1/2}, times 1/(N-1)
    tr = np.where(one_sided, 1.0 / (g.nodes + g.h / 2), inv_r / 2)
    tl = np.where(one_sided, 0.0, inv_r / 2)
    rad = w_rad_min / ((op.alpha + 1) * g.h)
    P = rad + (g.N_dim - 1) * w_tan_min * tr
    Q = (g.N_dim - 1) * w_tan_max * tl - rad
    rows = (P + b / 2 < 0) | (Q + b / 2 > 0)
    rows[[0, -1]] = False
    return rows


def flux_reference(op, coeff, u):
    """Pointwise reference of the alpha != 0 flux form: the half-node fluxes
    w = |s|^alpha s with odd ghost fluxes, radial eigenvalue D/(alpha+1),
    tangential eigenvalue M/r (D at r = 0, 0 at r = R, w_{i+1/2}/r_{i+1/2}
    in the one-sided rows) and drift b M (b w_{i+1/2} for b > 0 and
    b w_{i-1/2} for b < 0 in the upwind rows), weighted by the operator's
    own second-order weights."""
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
    drift = b * M
    upwind = upwind_rows(op, g, b)
    drift[upwind] = np.where(b > 0, b * wr, b * wl)[upwind]
    zero_order = c * np.sign(u.values) * np.abs(u.values) ** (alpha + 1)
    return w_rad * radial + (N - 1) * w_tan * tangential + drift + zero_order - data


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", sorted(WEIGHT_OPERATORS))
def test_residual_matches_pointwise_operator(name, N):
    # the solver's second-order weights against the operator's own pointwise
    # evaluation, node by node, on a state with both Hessian-eigenvalue signs:
    # on the discrete derivatives for alpha = 0 (with the forward difference
    # 2(u_{i+1} - u_i)/(r_{i+1}^2 - r_i^2) as tangential value in the
    # one-sided rows, and the drift on the upwind difference in the upwind
    # rows), on the flux form otherwise
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
        # with the tangential value given, u1 enters only the drift; b > 0
        # off the axis, so the upwind difference is the forward one
        upwind = np.flatnonzero(upwind_rows(op, g, coeff.sample(r)[0]))
        u1[upwind] = (u.values[upwind + 1] - u.values[upwind]) / g.h
        ref = eb.eval_radial_G(op, coeff, r, u.values, u1, u2, 0.0, N,
                               tangential=tangential)
    assert np.abs(res - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", sorted(WEIGHT_OPERATORS))
def test_flux_form_bands_are_monotone(name, N):
    # the Jacobian has nonnegative off-diagonals on every iterate, whatever
    # the Pucci policy and the drift: the scheme is monotone, for alpha = 0
    # too (the centred drift b/2 gave p = 3 in N = 3 a negative lower
    # off-diagonal at b = 0.3r + 0.5, and b = 300 broke every operator)
    g = eb.build_grid(1.0, N, 101)
    r = g.nodes
    for b in (None, 0.3 * r + 0.5, -0.3, 300.0, -300.0):
        b = None if b is None else np.broadcast_to(b, r.shape)
        driver = _Driver(WEIGHT_OPERATORS[name], g, b, -1.0 - r**2)
        rng = np.random.default_rng(N)
        for _ in range(50):
            v = rng.uniform(-2.0, 2.0, g.n) * rng.uniform(0.0, 1.0)
            _, aux = driver.residual(0.0, v)
            lower, _, upper = driver._bands(v, aux)
            assert lower.min() >= 0.0 and upper.min() >= 0.0, b


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


def test_initial_guess_of_the_wrong_length_is_rejected():
    g = eb.build_grid(1.0, 2, 401)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    with pytest.raises(ValueError, match=r"shape \(401,\) on this grid, got \(5,\)"):
        eb.solve_neumann(LAP, coeff, 0.0, None, g, eb.SolveOptions(initial=np.zeros(5)))


@pytest.mark.parametrize(
    "other", [(2.0, 2, 101), (1.0, 3, 101)], ids=["radius", "dimension"]
)
def test_initial_grid_function_on_another_grid_is_rejected(other):
    # the same node count, so only the grid tells the two apart
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    init = eb.GridFunction.from_callable(eb.build_grid(*other), np.cos)
    with pytest.raises(ValueError, match=r"initial is on RadialGrid.*not on the solve's"):
        eb.solve_neumann(LAP, coeff, 0.0, None, g, eb.SolveOptions(initial=init))


def test_initial_grid_function_on_the_solve_grid_is_accepted():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    # an equal grid built apart is the solve's grid
    init = eb.GridFunction.from_callable(eb.build_grid(1.0, 2, 101), np.cos)
    rep = eb.solve_neumann(LAP, coeff, 0.0, None, g, eb.SolveOptions(initial=init))
    assert rep.converged
    assert np.abs(rep.solution.values - 1.0).max() < 1e-8


@pytest.mark.parametrize(
    "field, value",
    [("max_iter", 0), ("max_iter", -1), ("U_max", 0.0), ("U_max", -1.0),
     ("U_max", float("nan"))],
    ids=["max_iter-0", "max_iter-negative", "U_max-0", "U_max-negative", "U_max-nan"],
)
def test_non_positive_step_or_iterate_bound_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        eb.SolveOptions(**{field: value})


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


def test_alpha_solve_stops_at_an_iterate_beyond_U_max():
    # the alpha = 0.5 start iterate, from c |u|^alpha u = g, has sup 0.91
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5)
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(
        b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.5 * np.cos(np.pi * r)
    )
    rep = eb.solve_neumann(op, coeff, 0.0, None, g, eb.SolveOptions(U_max=0.5))
    assert rep.bound_violation and not rep.converged
    assert rep.iterations == 0


def test_backtracking_down_to_rounding_ends_the_solve():
    # every point along a rejected Newton step, halved until it is below the
    # rounding scale of the iterate, raises the merit while the residual is
    # far above its floor: the solve stops there, well within its budget
    op = eb.EllipticOperator.pucci_plus(1.0, 2.0, -0.5)
    grid = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1e-6, g=lambda r: np.sin(6.0 * r) - 0.1)
    rep = eb.solve_neumann(op, coeff, 0.0, None, grid, eb.SolveOptions(max_iter=2000))
    assert not rep.converged and not rep.bound_violation
    assert rep.rejected > 50
    assert rep.iterations < 100
    assert rep.residual_sup > 100.0 * rep.residual_floor


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


def test_monotone_rate_matches_the_smallest_shift():
    # with c = -1 and g = -1 the iterates are constants and lambda_bar = 1,
    # so each step multiplies the change by exactly (lambda + s)/(1 + s),
    # s = max(max c + 1, -lambda) = max(0, -lambda)
    g = eb.build_grid(1.0, 2, 51)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    rep = eb.monotone_iteration(LAP, coeff, 0.9, None, g)
    assert rep.verdict is Verdict.CONVERGED
    change = np.diff(rep.sup_norms)
    # above 1e-5 the rounding of the differences stays below 1e-10
    change = change[change > 1e-5]
    assert len(change) > 50
    assert np.abs(change[1:] / change[:-1] - 0.9).max() <= 1e-9
    # rate 2: the sup-norm is 2^k - 1 after k steps, past 1e6 at k = 20
    rep = eb.monotone_iteration(LAP, coeff, 2.0, None, g)
    assert rep.verdict is Verdict.UNBOUNDED and rep.iterations <= 21
    # s = 2 makes lambda + s = 0: the first step is the solution 1/3
    rep = eb.monotone_iteration(LAP, coeff, -2.0, None, g)
    assert rep.verdict is Verdict.CONVERGED and rep.iterations <= 2
    assert np.abs(rep.final.values - 1.0 / 3.0).max() < 1e-12


def test_workspace_reuse_is_equivalent():
    g = eb.build_grid(1.0, 2, 101)
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    # the workspace is ignored: each solve caches its own factors
    with pytest.warns(DeprecationWarning, match="workspace"):
        opts = eb.SolveOptions(workspace=eb.SolveWorkspace())
    a = eb.monotone_iteration(LAP, coeff, 0.5, None, g, opts)
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
    "pucci_minus_a+0_0.5_3": eb.EllipticOperator.pucci_minus(0.5, 3.0, 0.0),
    "pucci_plus_a+0_0.5_3": eb.EllipticOperator.pucci_plus(0.5, 3.0, 0.0),
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


@pytest.mark.parametrize(
    "op",
    [
        eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.5),
        eb.EllipticOperator.p_laplacian(3.0),
        eb.EllipticOperator.pucci_plus(1.0, 2.0, -0.5),
        eb.EllipticOperator.p_laplacian(1.5),
    ],
    ids=["pucci_minus_a+0.5", "p_laplacian_p3", "pucci_plus_a-0.5", "p_laplacian_p1.5"],
)
def test_bands_match_finite_difference_jacobian_in_the_tail(op):
    # v = exp(-r^2) falls to 1e-11 at r = 5, far below 1e-6 sup|v|, and its
    # tail slopes lie below the gradient floor: every band entry, end rows
    # included, is the derivative of the residual there (a slope floor of
    # 1e-6 (1 + sup|v|) put 36 of these entries off by up to 4e3 relative)
    n = 51
    g = eb.build_grid(5.0, 2, n)
    r = g.nodes
    driver = _Driver(op, g, None, -1.0 - r**2)
    data = np.zeros(n)
    v = np.exp(-r**2)
    _, aux = driver.residual(data, v)
    lower, diag, upper = driver._bands(v, aux)
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1e-6 * v[j]
        plus, _ = driver.residual(data, v + e)
        minus, _ = driver.residual(data, v - e)
        jac[:, j] = (plus - minus) / (2 * e[j])
    i = np.arange(n)
    bands = np.concatenate([lower, diag, upper])
    fd = np.concatenate([jac[i[1:], i[:-1]], jac[i, i], jac[i[:-1], i[1:]]])
    assert np.all(np.abs(bands - fd) <= 1e-6 * np.abs(fd))


def test_ptc_reuses_bands_on_rejected_steps(monkeypatch):
    # backtracking a rejected Newton step only changes its length, so it
    # must not rebuild the bands: within one Newton run every _bands call is
    # on a new (iterate, aux) pair
    calls = []
    runs = [0]
    solve, bands = _Driver.solve, _Driver._bands

    def counted_solve(self, *args, **kwargs):
        runs[0] += 1
        return solve(self, *args, **kwargs)

    def counted_bands(self, v, aux):
        calls.append((runs[0], v, aux))
        return bands(self, v, aux)

    monkeypatch.setattr(_Driver, "solve", counted_solve)
    monkeypatch.setattr(_Driver, "_bands", counted_bands)
    attempts = _counted_steps(monkeypatch)
    g = eb.build_grid(1.0, 2, 201)
    coeff = eb.CoefficientField(
        b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.5 * np.cos(np.pi * r)
    )
    rep = eb.solve_neumann(STEP_OPERATORS["pucci_minus_a-0.5"], coeff, 0.0, None, g)
    # some Newton step was backtracked: each solve not followed by an
    # accepted point is one rejection, and there are more
    assert rep.rejected > len(attempts) - rep.iterations
    keys = [(run, id(v), id(aux)) for run, v, aux in calls]
    assert len(set(keys)) == len(keys)


# the solve_mix data: c = -1 - r^2, g = -1 + 0.5 cos(pi r)
MIX = eb.CoefficientField(
    b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.5 * np.cos(np.pi * r)
)


@pytest.mark.parametrize(
    "op, n, residual_before, budget",
    [
        # residual and evaluation count before the floor stop: 3.33e-9
        # after 65 evaluations, 6.74e-9 after 68, and 3.86e-7 after 16 (with
        # the gradient floor delta proportional to sup|u|; 1.55e-7 with
        # delta = 1e-8 (1 + sup|u|/R); floors 4.2e-5 and 2.5e-5)
        (eb.EllipticOperator.pucci_minus(1.0, 1.0, 0.0), 4001, 3.33e-9, None),
        (eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0), 4001, 6.74e-9, None),
        (STEP_OPERATORS["pucci_minus_a-0.5"], 201, 3.86e-7, 300),
    ],
    ids=["laplacian", "pucci_minus", "pucci_minus_a-0.5"],
)
def test_solve_stops_at_the_residual_floor(monkeypatch, op, n, residual_before, budget):
    # a step rejected from an iterate at its rounding floor ends the solve:
    # no backtracked point follows it
    calls = [0]
    residual = _Driver.residual

    def counted_residual(self, *args):
        calls[0] += 1
        return residual(self, *args)

    monkeypatch.setattr(_Driver, "residual", counted_residual)
    g = eb.build_grid(1.0, 2, n)
    rep = eb.solve_neumann(op, MIX, 0.0, None, g)
    assert not rep.converged
    if budget is None:
        # the start, every accepted Newton step and the one rejected step
        assert calls[0] <= rep.iterations + 2
    else:
        assert calls[0] <= budget
    assert rep.residual_sup <= 2.0 * residual_before
    assert rep.residual_sup <= rep.residual_floor
    # ||L||_inf (1 + sup|u|) is within 2x of the alpha = 0 stencil floor
    # 10 eps (4 A / h^2 + |c|_inf + 1)(1 + sup|u|), and counts the
    # delta^alpha amplification of the gradient factor
    _, A = op.ellipticity_bounds()
    stencil = 10.0 * np.finfo(float).eps * (4.0 * A / g.h**2 + 2.0 + 1.0)
    rounding = stencil * (1.0 + rep.solution.sup_norm())
    if op.alpha == 0.0:
        assert 0.5 * rounding <= rep.residual_floor <= 2.0 * rounding
    else:
        assert rep.residual_floor >= 1e3 * rounding


@pytest.mark.parametrize(
    "op, u0",
    [
        (eb.EllipticOperator.pucci_plus(1.0, 2.0, 0.5), 0.849250930619983),
        (
            eb.EllipticOperator.anisotropic(
                1.0, 2.0, q=3.0, c0=0.5, b1_profile=1.25, b2_profile=0.5
            ),
            0.8322492232279839,
        ),
    ],
    ids=["pucci_plus_a+0.5", "anisotropic_q3"],
)
def test_cold_positive_alpha_solves_take_newton_steps(op, u0):
    # the bands are the exact Jacobian, so a solve from u = 0 that starts
    # with Newton steps converges in a few of them (pseudo-time stepping
    # from the CFL step took 199 and 179); u(0) is the value it had then
    rep = eb.solve_neumann(op, MIX, 0.0, None, eb.build_grid(1.0, 2, 401))
    assert rep.converged and rep.barrier_ok
    assert rep.iterations <= 20
    assert rep.solution.values[0] == pytest.approx(u0, abs=1e-8)


def test_singular_factor_stops_the_solve(singular_factor):
    # LAPACK reporting the bands singular ends the solve at its start,
    # unconverged, without an exception
    coeff = eb.CoefficientField(b=0.0, c=-1.0, g=-1.0)
    rep = eb.solve_neumann(LAP, coeff, 0.0, None, eb.build_grid(1.0, 2, 101))
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.residual_sup == 1.0


def _counted_steps(monkeypatch):
    """Record the Newton step du = -x of every tridiagonal solve x."""
    calls = []
    solve = solver._TriFactor.solve

    def counted_solve(self, rhs):
        x = solve(self, rhs)
        calls.append(-x)
        return x

    monkeypatch.setattr(solver._TriFactor, "solve", counted_solve)
    return calls


def _counted_residual(monkeypatch):
    """Record (v, Euclidean merit) of every residual evaluation."""
    points = []
    residual = _Driver.residual

    def counted_residual(self, g, v):
        out = residual(self, g, v)
        points.append((v.copy(), float(np.sqrt(out[0] @ out[0]))))
        return out

    monkeypatch.setattr(_Driver, "residual", counted_residual)
    return points


@pytest.mark.parametrize(
    "op, max_steps, max_trials",
    [
        # 14 steps and 14 solves; 53 steps in 106 solves when every
        # rejected Newton step went to the margin cut and dt halving
        (eb.EllipticOperator.p_laplacian(3.0), 20, 20),
        # 13 steps and 14 solves before the floor stop; 38 in 69
        (STEP_OPERATORS["pucci_minus_a-0.5"], 16, 16),
    ],
    ids=["p_laplacian_p3", "pucci_minus_a-0.5"],
)
def test_ptc_steps_past_the_newton_plateau(monkeypatch, op, max_steps, max_trials):
    # a rejected Newton step is backtracked along its own direction at the
    # cost of one residual per point, so the run neither halves dt through a
    # plateau of near-identical trial steps nor climbs it back
    calls = _counted_steps(monkeypatch)
    points = _counted_residual(monkeypatch)
    rep = eb.solve_neumann(op, MIX, 0.0, None, eb.build_grid(1.0, 2, 401))
    assert rep.converged is (op.alpha > 0)
    assert rep.iterations <= max_steps and len(calls) <= max_trials
    # every point after the start is accepted (an iteration) or rejected, a
    # backtracked point included, and only the trial steps solve
    assert rep.iterations + rep.rejected == len(points) - 1
    assert len(calls) <= len(points) - 1
    assert rep.summary()["rejected"] == rep.rejected
    # one solve per iterate: the Newton step from each accepted one, and the
    # step rejected at the floor
    assert len(calls) == rep.iterations + (not rep.converged)


def test_rejected_newton_step_backtracks_before_any_pseudo_time_trial(monkeypatch):
    # p = 3 from the pointwise start: the Newton step raises the residual
    # norm from 150 to 799, v + du/2 gives 217 and v + du/4 is accepted at 126
    op = eb.EllipticOperator.p_laplacian(3.0)
    grid = eb.build_grid(1.0, 2, 401)
    b, c, _ = MIX.sample(grid.nodes)
    g = MIX.g(grid.nodes)
    driver = _Driver(op, grid, b, c)
    v = eb.signed_power(g / c, -0.5)
    res, aux = driver.residual(g, v)
    merit = float(np.sqrt(res @ res))
    calls = _counted_steps(monkeypatch)
    points = _counted_residual(monkeypatch)
    out = driver.solve(g, v, eb.SolveOptions(max_iter=1), res, aux)
    steps, rejected = out[5:7]
    # one solve, the Newton step, then points v + 2^-k du_N with no solve
    assert len(calls) == 1
    du = calls[0]
    assert len(points) == 3
    for k, (point, _) in enumerate(points):
        assert np.array_equal(point, v + du * 2.0**-k)
    # every point but the last failed to lower the merit; the last did
    assert all(m >= merit for _, m in points[:-1]) and points[-1][1] < merit
    assert steps == 1 and rejected == len(points) - 1
    assert np.array_equal(out[0], points[-1][0])


def test_cold_pucci_solve_with_drift_makes_one_solve_per_step(monkeypatch):
    # Pucci- (a = 0.5, A = 3, alpha = 1) at n = 1601 with drift: on its third
    # iterate no point along the Newton step lowers the merit down to 2^-10
    # of its length, and 2^-11 does.  Backtracking on towards the rounding of
    # the iterate converges in 125 steps, each one solve; pseudo-time trials
    # after 10 points took 321 steps and 640 solves
    op = eb.EllipticOperator.pucci_minus(0.5, 3.0, 1.0)
    grid = eb.build_grid(1.0, 2, 1601)
    coeff = eb.CoefficientField(
        b=0.3, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.9 * np.cos(np.pi * r)
    )
    calls = _counted_steps(monkeypatch)
    factorizations = [0]
    gttrf = solver._gttrf

    def counted_gttrf(*args):
        factorizations[0] += 1
        return gttrf(*args)

    monkeypatch.setattr(solver, "_gttrf", counted_gttrf)
    rep = eb.solve_neumann(op, coeff, 0.0, None, grid)
    assert rep.converged
    assert rep.iterations <= 150
    assert len(calls) == rep.iterations
    # alpha != 0 bands depend on the iterate: each Newton solve factors them
    assert factorizations[0] == len(calls)


@pytest.mark.parametrize("n", [101, 401])
@pytest.mark.parametrize("name", ["pucci_minus_a-0.5", "pucci_plus_a-0.5"])
def test_singular_pucci_in_three_dimensions_reaches_its_floor(name, n):
    # Newton steps that lower the Euclidean merit only when backtracked; with
    # the margin cut and dt halving alone three of these four solves ran all
    # 20,000 iterations and ended above their floor
    grid = eb.build_grid(1.0, 3, n)
    rep = eb.solve_neumann(STEP_OPERATORS[name], MIX, 0.0, None, grid)
    assert not rep.converged
    assert rep.iterations <= 30
    assert rep.residual_sup <= rep.residual_floor


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(STEP_OPERATORS)),
    N=st.sampled_from([2, 3]),
    n=st.integers(21, 401),
    a=st.floats(0.3, 2.0),
    b=st.sampled_from([0.0, 0.3]),
)
def test_alpha_solves_converge_or_reach_their_floor(name, N, n, a, b):
    # c = -1 - r^2 and g = -1 + a cos(pi r), sign-changing for a > 1
    coeff = eb.CoefficientField(
        b=b, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + a * np.cos(np.pi * r)
    )
    rep = eb.solve_neumann(STEP_OPERATORS[name], coeff, 0.0, None, eb.build_grid(1.0, N, n))
    assert rep.converged or rep.residual_sup <= rep.residual_floor
    assert rep.iterations <= 200


@pytest.mark.parametrize("n", [101, 401])
@pytest.mark.parametrize("N", [2, 3])
def test_pucci_plus_with_wide_ellipticity_converges_in_newton_steps(N, n):
    # Newton steps on the frozen-policy operator, backtracked on the
    # Euclidean merit: 5 or 6 steps.  Policy rounds that stopped at the first
    # sup-norm increase handed over to pseudo-time steps from the CFL step,
    # which ran 20,000 iterations and ended at residuals of 0.17-0.23
    coeff = eb.CoefficientField(
        b=0.0, c=lambda r: -1.0 - r**2, g=lambda r: -1.0 + 0.9 * np.cos(np.pi * r)
    )
    op = STEP_OPERATORS["pucci_plus_a+0_0.5_3"]
    rep = eb.solve_neumann(op, coeff, 0.0, None, eb.build_grid(1.0, N, n))
    assert rep.converged and rep.barrier_ok
    assert rep.iterations <= 10


@pytest.mark.parametrize(
    "op, b, steps, factorizations",
    [
        # 241 and 69 outer steps when the inner tolerance used the
        # closed-form stencil floor instead of the factored bands
        (eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0), 0.0, 231, 6),
        (LAP, 300.0, 67, 1),
    ],
    ids=["pucci_minus", "laplacian_drift"],
)
def test_monotone_iteration_reuses_one_factor_per_policy(monkeypatch, op, b, steps, factorizations):
    # every alpha = 0 Newton step of the inner solves comes from the factor
    # cached for its policy: one gttrf per policy change
    calls = {"gttrf": 0}
    gttrf = solver._gttrf

    def counted_gttrf(*args):
        calls["gttrf"] += 1
        return gttrf(*args)

    monkeypatch.setattr(solver, "_gttrf", counted_gttrf)
    coeff = eb.CoefficientField(b=b, c=lambda r: -1.0 - r**2, g=-1.0)
    rep = eb.monotone_iteration(op, coeff, 1.5, None, eb.build_grid(1.0, 2, 401))
    assert rep.verdict is Verdict.CONVERGED
    assert rep.iterations == steps
    assert calls == {"gttrf": factorizations}


# ------------------------------ LAPACK binding -------------------------------

SRC = str(Path(solver.__file__).resolve().parents[1])


def _run_fresh(*parts):
    """Run the script made of ``parts`` in a fresh interpreter with the
    package on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", "".join(map(textwrap.dedent, parts))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy_linalg():
    out = _run_fresh("""
        import sys
        import eigenball.cli
        print(" ".join(m for m in sys.modules if m.startswith("scipy.linalg")))
    """)
    assert out.split() == []


SAME_ROUTINES = """
    import numpy as np
    import scipy.linalg
    from eigenball import solver
    routines = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (np.array([1.0]),))
    assert routines[0] is solver._gttrf
    assert routines[1] is solver._gttrs
"""


def test_lapack_routines_are_scipys_after_eigenball_import():
    _run_fresh("""
        import eigenball
        import scipy.linalg
        from scipy.optimize import minimize
        assert scipy.linalg._flapack.dgttrf is eigenball.solver._gttrf
        res = minimize(lambda x: ((x - 1.0) ** 2).sum(), [0.0, 3.0], method="L-BFGS-B")
        assert res.success and abs(res.x - 1.0).max() < 1e-6
    """, SAME_ROUTINES)


def test_lapack_routines_are_scipys_after_scipy_linalg_import():
    _run_fresh("""
        import scipy.linalg
        import eigenball
    """, SAME_ROUTINES)


def test_lapack_loader_names_scipy_when_the_extension_is_missing(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: None)
    with pytest.raises(ImportError, match=r"scipy >= 1\.10"):
        solver._tridiagonal_lapack()
