import dataclasses
import math

import numpy as np
import pytest

import eigenball as eb


# Reference parameter set used throughout: N=2, a=A=1, alpha=0, R=1,
# rho=0.25, k=4, beta1=10.
REF = dict(N_dim=2, a=1.0, A=1.0, alpha=0.0, R=1.0, rho=0.25, k=4.0, beta1=10.0)


def ref_bound_oracle():
    """Independent transcription of the admissible-core bound for REF."""
    num = 4.0 * math.exp(-1.0) * (4.0 + 1.0 / 0.25)  # 32/e
    inner = (2 * 2 * 1 * 1 - 1 * 1 * 1.25) / (10.0 * 1.0 * 0.75)
    d_lim = 4.0 * (0.75 / 4.0 + inner)
    return num / (d_lim + 1.0 - math.exp(-1.0))


def test_beta2_upper_bound_reference_value():
    got = eb.beta2_upper_bound(**REF)
    oracle = ref_bound_oracle()
    assert got == pytest.approx(oracle, rel=1e-14)
    assert got == pytest.approx(4.132, abs=1e-3)
    # spot-check the displayed pieces: numerator 32/e ~ 11.77, denominator ~ 2.849
    assert 32.0 / math.e == pytest.approx(11.7721, abs=1e-4)
    assert 32.0 / math.e / oracle == pytest.approx(2.8488, abs=1e-4)


def test_beta2_bound_blows_up_for_small_core():
    vals = [
        eb.beta2_upper_bound(2, 1.0, 1.0, 0.0, 1.0, rho, 1.0 / rho, 10.0)
        for rho in (0.2, 0.1, 0.05, 0.025)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_beta2_bound_vanishes_for_large_core():
    vals = [
        eb.beta2_upper_bound(2, 1.0, 1.0, 0.0, 1.0, rho, 4.0, 10.0)
        for rho in (0.5, 0.7, 0.9)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.2


def test_beta2_bound_vanishes_with_annulus_magnitude():
    vals = [
        eb.beta2_upper_bound(2, 1.0, 1.0, 0.0, 1.0, 0.25, 4.0, b1)
        for b1 in (1.0, 0.1, 0.01)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_beta2_bound_increasing_in_beta1():
    vals = [
        eb.beta2_upper_bound(2, 1.0, 1.0, 0.0, 1.0, 0.25, 4.0, b1)
        for b1 in (1.0, 5.0, 25.0)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_build_params_reference_set():
    params = eb.build_params(**REF, beta2=2.0)
    assert params.E * (params.R - params.rho - params.eps) > params.k
    assert params.eps < params.eps_prime
    assert params.D > params.E / 4.0 * (params.R - params.rho - params.eps) ** 2
    assert params.E == pytest.approx(params.k / (params.R - params.rho - params.eps_prime))
    # D carries the closed-form assembly
    expected_D = (
        params.E / 4.0 * (params.R - params.rho - params.eps) ** 2
        + params.E * params.C
        + params.eps
    )
    assert params.D == pytest.approx(expected_D, rel=1e-14)


def test_build_params_rejects_large_beta2():
    bound = eb.beta2_upper_bound(**REF)
    with pytest.raises(eb.InfeasibleParams) as exc:
        eb.build_params(**REF, beta2=10.0)
    assert exc.value.bound == pytest.approx(bound)


SEARCH = dict(N_dim=2, a=1.0, A=2.0, alpha=0.0, R=1.0, rho=0.25, k=4.0, beta1=10.0)


def test_build_params_halves_the_shell_width():
    # close to the limit form, the exact-D bound rejects the first five
    # shell widths (R - rho)/4 * 2^-j
    limit = eb.beta2_upper_bound(**SEARCH)
    params = eb.build_params(**SEARCH, beta2=0.99 * limit)
    assert params.eps_prime == 0.005859375 == 0.1875 / 2**5
    assert params.eps == params.eps_prime / 2.0
    assert params.validate() is params


def test_build_params_search_exhausted():
    limit = eb.beta2_upper_bound(**SEARCH)
    message = "no admissible shell width found in 2 halvings"
    with pytest.raises(eb.InfeasibleParams, match=message) as exc:
        eb.build_params(**SEARCH, beta2=0.999 * limit, max_halvings=2)
    assert exc.value.bound == limit


@pytest.mark.parametrize("eps, eps_prime", [(0.3, 0.2), (-0.1, 0.2), (0.1, 0.75)])
def test_build_params_rejects_malformed_forced_widths(eps, eps_prime):
    # malformed input, not an infeasible margin: no search runs on it
    with pytest.raises(ValueError, match="0 < eps < eps_prime < R - rho") as exc:
        eb.build_params(**SEARCH, beta2=1.0, eps=eps, eps_prime=eps_prime)
    assert not isinstance(exc.value, eb.InfeasibleParams)


@pytest.mark.parametrize("beta2", [0.0, -1.0, math.nan])
def test_build_params_rejects_nonpositive_beta2(beta2):
    # a configuration error, not an exhausted shell-width search
    with pytest.raises(ValueError, match="beta2 > 0") as exc:
        eb.build_params(**SEARCH, beta2=beta2)
    assert not isinstance(exc.value, eb.InfeasibleParams)


def test_build_params_thin_shell_limit():
    # with forced tiny shells, D approaches the closed-form limit
    d_lim = 4.0 * (0.75 / 4.0 + (4.0 - 1.25) / 7.5)
    params = eb.build_params(**REF, beta2=2.0, eps=1e-6, eps_prime=2e-6)
    assert params.D == pytest.approx(d_lim, abs=1e-4)


def test_supersolution_continuity_and_shape():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    rho, R, eps = params.rho, params.R, params.eps
    # values approaching a breakpoint from both branches differ only by the
    # one-sided slopes times the offset (the corner is a value match)
    off = 1e-9
    slope_scale = params.k + params.E * (R - rho - eps) + 1.0
    pts = np.array([rho - off, rho + off, R - eps - off, R - eps + off])
    vals = v.value(pts)
    assert abs(vals[0] - vals[1]) < 2.0 * slope_scale * off
    assert abs(vals[2] - vals[3]) < 2.0 * slope_scale * off
    assert v.value(np.array([R]))[0] == params.D
    # interior cap exceeds the shell value
    assert v.value(np.array([0.0]))[0] > params.D
    r_min, v_min = v.middle_minimum()
    assert v.value(np.array([r_min]))[0] == pytest.approx(v_min, rel=1e-13)
    assert v_min == pytest.approx(
        params.D - params.E / 4.0 * (R - rho - eps) ** 2, rel=1e-13
    )


def test_supersolution_random_parameter_sets():
    rng = np.random.default_rng(2)
    built = 0
    while built < 100:
        rho = rng.uniform(0.1, 0.6)
        k = rng.uniform(1.0, 6.0)
        beta1 = rng.uniform(1.0, 20.0)
        a = rng.uniform(0.5, 2.0)
        A = a * rng.uniform(1.0, 2.0)
        alpha = rng.choice([0.0, 0.5, 1.0])
        try:
            bound = eb.beta2_upper_bound(2, a, A, alpha, 1.0, rho, k, beta1)
            params = eb.build_params(2, a, A, alpha, 1.0, rho, k, beta1, bound / 2.0)
        except (ValueError, eb.InfeasibleParams):
            continue
        v = eb.build_supersolution(params)
        built += 1
        # construction enforces branch-value agreement at the breakpoints to
        # 1e-12 relative; here check the local slope-bounded behavior too
        off = 1e-9
        slope_scale = params.k + params.E * (1.0 - params.rho - params.eps) + 1.0
        pts = np.array(
            [params.rho - off, params.rho + off,
             1.0 - params.eps - off, 1.0 - params.eps + off]
        )
        vals = v.value(pts)
        assert abs(vals[0] - vals[1]) <= 2.0 * slope_scale * off
        assert abs(vals[2] - vals[3]) <= 2.0 * slope_scale * off
        r_min, v_min = v.middle_minimum()
        assert v.value(np.array([r_min]))[0] == pytest.approx(v_min, rel=1e-12)
        assert v_min > 0


def test_derivatives_match_finite_differences():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    rng = np.random.default_rng(8)
    h1, h2 = 1e-6, 1e-4
    for _ in range(200):
        r = rng.uniform(0.01, 0.99)
        if min(abs(r - bp) for bp in v.breakpoints) < 1e-3:
            continue
        d1 = float(np.diff(v.value(np.array([r - h1, r + h1])))[0] / (2 * h1))
        vals = v.value(np.array([r - h2, r, r + h2]))
        d2 = (vals[2] - 2 * vals[1] + vals[0]) / h2**2
        assert v.deriv1(np.array([r]))[0] == pytest.approx(d1, rel=1e-7, abs=1e-7)
        assert v.deriv2(np.array([r]))[0] == pytest.approx(d2, rel=1e-5, abs=1e-5)


def test_default_c_band_is_admissible():
    params = eb.build_params(**REF, beta2=2.0)
    band = eb.default_c_band(params)
    assert band(np.array([0.0]))[0] == pytest.approx(params.beta2 / 2.0)
    mid = 0.5 * (params.rho + params.R - params.eps)
    assert band(np.array([mid]))[0] == pytest.approx(-params.beta1)
    r = np.linspace(0.0, params.R, 1000)
    c = band(r)
    core = r <= params.rho
    annulus = (r > params.rho) & (r <= params.R - params.eps)
    shell = r > params.R - params.eps
    assert np.all(c[core] <= params.beta2 + 1e-12)
    assert np.all(c[annulus] <= -params.beta1 + 1e-12)
    assert np.all(c[shell] < 0.0)
    assert c[0] > 0.0  # genuinely sign-changing


def test_integral_of_c_constant():
    g = eb.build_grid(1.0, 2, 801)
    assert eb.integral_of_c(-1.0, g) == pytest.approx(-math.pi, rel=1e-5)
    assert eb.integral_of_c(0.0, g) == 0.0
    g3 = eb.build_grid(2.0, 3, 801)
    vol = 4.0 / 3.0 * math.pi * 8.0
    assert eb.integral_of_c(1.0, g3) == pytest.approx(vol, rel=1e-5)


def test_integral_of_c_band_negative():
    params = eb.build_params(**REF, beta2=2.0)
    band = eb.default_c_band(params)
    assert eb.integral_of_c(band, eb.build_grid(1.0, 2, 2001)) < 0.0


def test_verify_accepts_reference_set():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    band = eb.default_c_band(params)
    cert = eb.verify(params, v, band, eb.build_grid(1.0, 2, 801))
    assert cert.verdict == "accept"
    assert min(cert.m1, cert.m2, cert.m3) > 0
    assert cert.grid_margin > 0
    assert cert.integral_c < 0
    # the closed forms are worst-case bounds for the swept regions
    assert cert.grid_margin >= min(cert.m1, cert.m2, cert.m3) - 10.0 * 1.0 / 800


def test_verify_rejects_weak_annulus():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    band = eb.default_c_band(params)
    weak = dataclasses.replace(params, beta1=0.01)
    cert = eb.verify(weak, v, band, eb.build_grid(1.0, 2, 801))
    assert cert.m2 <= 0
    assert cert.verdict == "reject"


def test_verify_rejects_nonpositive_candidate():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    band = eb.default_c_band(params)

    class Shifted:
        def value(self, r):
            return v.value(r) - params.D

        def deriv1(self, r):
            return v.deriv1(r)

        def deriv2(self, r):
            return v.deriv2(r)

    cert = eb.verify(params, Shifted(), band, eb.build_grid(1.0, 2, 801))
    assert not cert.positivity_ok
    assert cert.verdict == "reject"


def test_verify_rejects_coarse_grid():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    band = eb.default_c_band(params)
    with pytest.raises(eb.GridResolutionError):
        eb.verify(params, v, band, eb.build_grid(1.0, 2, 41))


def test_certificate_serialization_roundtrip():
    params = eb.build_params(**REF, beta2=2.0)
    v = eb.build_supersolution(params)
    cert = eb.verify(params, v, eb.default_c_band(params), eb.build_grid(1.0, 2, 801))
    d = cert.to_dict()
    assert d["verdict"] == "accept"
    assert d["params"]["rho"] == 0.25
    assert set(d) >= {"params", "m1", "m2", "m3", "grid_margin", "integral_c", "verdict"}


# ----------------------------- barrier exponent -------------------------------


def test_barrier_exponent_quadratic_case():
    # the displayed polynomial is k^2 - 2k - 1 for these arguments
    k = eb.barrier_exponent(1.0, 1.0, 2, 0.5, 0.0, 1.0, 0.0)
    assert k == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-8)


def test_barrier_exponent_cubic_case():
    # bisection oracle on k^3 - 5 k^2 - 1 computed independently
    def f(k):
        return k**3 - 5.0 * k**2 - 1.0

    lo, hi = 1.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    k = eb.barrier_exponent(1.0, 2.0, 3, 1.0, 1.0, 1.0, 1.0)
    assert k == pytest.approx(hi, abs=1e-6)


def test_barrier_exponent_zero_order_free():
    k = eb.barrier_exponent(1.0, 2.0, 3, 0.5, 0.0, 0.0, 0.0)
    # the first-degree term dominates immediately: k ~ A(N-1)/(a rho)
    assert k == pytest.approx(2.0 * 2 / 0.5, abs=1e-3)


def test_barrier_exponent_makes_expression_strict():
    for args in [(1.0, 1.0, 2, 0.5, 0.0, 1.0, 0.0), (1.0, 2.0, 3, 1.0, 1.0, 1.0, 1.0)]:
        a, A, N, rho, bs, cs, alpha = args
        k = eb.barrier_exponent(*args)
        expr = a * k ** (alpha + 2) - (A * (N - 1) / rho + bs) * k ** (alpha + 1) - cs
        assert expr >= 1e-8 - 1e-12


# ------------------------- cross-module consistency ---------------------------


def test_certificate_forces_positive_threshold_small_grid():
    # accepted certificate => the bisection lower end clears
    # margin / (sup v)^{alpha+1} minus the bracket width
    params = eb.build_params(2, 1.0, 2.0, 0.0, 1.0, 0.25, 4.0, 10.0, 1.0)
    v = eb.build_supersolution(params)
    band = eb.default_c_band(params)
    cert = eb.verify(params, v, band, eb.build_grid(1.0, 2, 801))
    assert cert.accepted
    sup_v = float(v.value(np.array([0.0]))[0])
    lower = cert.margin() / sup_v ** (params.alpha + 1.0)
    op = eb.EllipticOperator.pucci_minus(1.0, 2.0, 0.0)
    est = eb.lambda_up(op, eb.CoefficientField(b=0.0, c=band, g=0.0),
                       eb.build_grid(1.0, 2, 101))
    assert est.lambda_lo >= 0.0
    assert est.lambda_hi >= lower
