import dataclasses

import numpy as np
import pytest

from viscompare.barrier import (
    BarrierParams,
    BarrierPreconditionError,
    Window,
    beta_mu,
    construct_barrier,
    eval_barrier,
    extremal_residual,
    lambda0_for_SG,
    linear_case_barrier,
    system_extremal_residual,
    verify_strict,
    window_points,
)
from viscompare.fields import as_point
from viscompare.growth import DEFAULT_RADII, bracket, bracket_power_derivatives, classify_growth
from viscompare.hamiltonians import PowerHamiltonian
from viscompare.operators import DriftDiffusionOperator
from viscompare.problems import ProblemSpec, eq12, eq12_solutions, eq13, ex2, hje3

WINDOW = Window(radius=1.0e3, nodes=2001)


def zero_data_problem():
    op = DriftDiffusionOperator(sigma=np.zeros((1, 1)), b=np.zeros(1), N=1)
    return ProblemSpec(N=1, lam=1.0, operator=op,
                       hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
                       q=2.0, f=lambda x: 0.0, C0=1.0)


def no_h_problem(sigma0_growing=False, lam=1.0):
    if sigma0_growing:
        sig = lambda x: np.array([[np.sqrt(1.0 + float(x[0]) ** 2)]])
    else:
        sig = np.zeros((1, 1))
    op = DriftDiffusionOperator(sigma=sig, b=np.zeros(1), N=1)
    return ProblemSpec(N=1, lam=lam, operator=op, hamiltonian=None, q=2.0,
                       f=lambda x: 0.0)


def test_beta_mu_values():
    assert beta_mu(0.5, 2.0, 1.0) == pytest.approx(4.0)
    assert beta_mu(1e-12, 2.0, 1.0) == pytest.approx(2.0, abs=1e-9)
    assert beta_mu(0.9, 2.0, 1.0) == pytest.approx(20.0)
    assert beta_mu(0.3, 3.0, 0.0) == 0.0


def test_beta_mu_domain():
    for mu in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            beta_mu(mu, 2.0, 1.0)


def test_construct_eq13_constants():
    params = construct_barrier(eq13(1.0, 2.0), 0.9, WINDOW)
    assert params.q_prime == pytest.approx(2.0)
    assert params.C0_prime == pytest.approx(8.0)
    assert params.eps == pytest.approx(0.25)
    assert params.alpha == pytest.approx(1.0 / 32.0)
    assert params.eps_prime == pytest.approx(1.0 / 128.0)
    assert params.C_eps == pytest.approx(1.0)       # |sigma0| = 1 at x = 0
    assert params.C_eps_prime == pytest.approx(0.0)  # f = 0
    assert params.C1 == pytest.approx(2.0)
    assert params.beta_mu == pytest.approx(20.0)


def test_construct_zero_data():
    params = construct_barrier(zero_data_problem(), 0.5, WINDOW)
    assert params.C_eps == 0.0 and params.C_eps_prime == 0.0
    assert params.C1 == pytest.approx(1.0)


def test_invariant_chain_validated():
    with pytest.raises(ValueError):
        BarrierParams(mu=0.5, q=2.0, q_prime=2.0, lam=1.0, C0=1.0, C0_prime=8.0,
                      eps=0.5, eps_prime=1e-3, C_eps=0.0, C_eps_prime=0.0,
                      alpha=1.0 / 32.0, C1=1.0, beta_mu=4.0, window_radius=10.0)
    with pytest.raises(ValueError):
        BarrierParams(mu=0.5, q=2.0, q_prime=2.0, lam=1.0, C0=1.0, C0_prime=8.0,
                      eps=0.25, eps_prime=1e-3, C_eps=0.0, C_eps_prime=0.0,
                      alpha=0.9, C1=1.0, beta_mu=4.0, window_radius=10.0)


def test_eval_barrier_trivials():
    params = construct_barrier(eq13(1.0, 2.0), 0.9, WINDOW)
    v0, g0, h0 = eval_barrier(params, np.zeros(1))
    assert v0 == pytest.approx((1 - 0.9) * (params.C1 + params.alpha))
    assert np.allclose(g0, 0.0)
    assert h0[0, 0] == pytest.approx(2.0 * (1 - 0.9) * params.alpha)
    for mu in (0.999, 0.999999):
        p = construct_barrier(eq13(1.0, 2.0), mu, WINDOW)
        v, _, _ = eval_barrier(p, np.array([3.0]))
        assert v <= (1 - mu) * (p.C1 + p.alpha * bracket(3.0) ** 2) + 1e-15


def test_extremal_residual_zero_gap():
    problem = eq13(1.0, 2.0)
    params = construct_barrier(problem, 0.9, WINDOW)
    r = extremal_residual(problem, params, 0.0, np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    assert r == pytest.approx(0.0)


def test_extremal_residual_scaled_solution_gap_nonpositive():
    # w = mu*u2 - u1 = mu*u2 for the quadratic non-uniqueness pair:
    # a classical gap function, so the extremal residual stays <= 0
    lam, mu = 1.0, 0.9
    problem = eq12(lam)
    params = construct_barrier(problem, mu, WINDOW)
    _, u2 = eq12_solutions(lam)
    for x in np.linspace(-10, 10, 201):
        p = np.array([x])
        w = mu * u2.val(p)
        g = mu * u2.grad(p)
        h = mu * u2.hess(p)
        assert extremal_residual(problem, params, w, g, h, p) <= 1e-12


def test_verify_strict_eq13_family():
    for fname, f in (("zero", lambda x: 0.0),
                     ("bracket", lambda x: bracket(x)),
                     ("5bracket", lambda x: 5.0 * bracket(x))):
        problem = eq13(1.0, 2.0, f=f)
        for mu in (0.5, 0.9, 0.99):
            params = construct_barrier(problem, mu, WINDOW)
            rep = verify_strict(problem, params)
            assert rep.passed, (fname, mu, rep.min_residual)


def test_verify_strict_closed_form_minimum():
    # sigma0 = b0 = f = 0: residual/(1-mu) = lam(C1 + alpha<x>^2) - 8 alpha^2 x^2
    problem = zero_data_problem()
    mu = 0.9
    params = construct_barrier(problem, mu, WINDOW)
    rep = verify_strict(problem, params, grid=np.linspace(-50, 50, 5001))
    lam, a = params.lam, params.alpha
    xs = np.linspace(-50, 50, 5001)
    closed = (1 - mu) * (lam * (params.C1 + a * (1 + xs**2)) - params.beta_mu * (a * 2 * xs) ** 2 / (1 - mu) ** 1 * (1 - mu))
    # direct evaluation oracle
    vals = []
    for x in xs:
        v, g, h = eval_barrier(params, np.array([x]))
        vals.append(params.lam * v - params.beta_mu * np.linalg.norm(g) ** 2)
    assert rep.min_residual == pytest.approx(min(vals), rel=1e-9)
    assert rep.passed


def test_verify_strict_stress_negative_f_fails():
    # params built for f = 0; verified against f = -10 lam <x>^2, which sits
    # outside S_2^+; the (1-mu) f term then overwhelms the barrier at the edge
    problem_good = eq13(1.0, 2.0)
    params = construct_barrier(problem_good, 0.9, WINDOW)
    problem_bad = problem_good.with_f(lambda x: -10.0 * bracket(x) ** 2)
    rep = verify_strict(problem_bad, params, grid=np.linspace(-1e3, 1e3, 2001))
    assert not rep.passed
    assert abs(rep.argmin[0]) == pytest.approx(1e3)


def test_construct_refuses_sg_drift():
    with pytest.raises(BarrierPreconditionError, match="large-lambda"):
        construct_barrier(hje3(1.0, 1.0), 0.9, WINDOW)


def test_construct_refuses_f_below_class():
    problem = eq13(1.0, 2.0, f=lambda x: -float(x[0]) ** 4)
    with pytest.raises(BarrierPreconditionError, match="S_{q'}"):
        construct_barrier(problem, 0.9, WINDOW)


def ladder_oracle(problem_builder, lam_values, mu=0.9):
    """Independent 1-d oracle: direct grid minimum of the barrier residual."""
    first = None
    for lam in lam_values:
        problem = problem_builder(lam)
        params = construct_barrier(problem, mu, WINDOW, relaxed=True)
        xs = np.linspace(-WINDOW.radius, WINDOW.radius, 4001)
        vals = []
        for x in xs:
            v, g, h = eval_barrier(params, np.array([x]))
            vals.append(extremal_residual(problem, params, v, g, h, np.array([x])))
        if min(vals) > 0 and first is None:
            first = lam
    return first


def test_lambda0_strict_data_first_rung():
    rep = lambda0_for_SG(eq13(1.0, 2.0), 0.9, WINDOW)
    assert rep.lambda0 == pytest.approx(1.0 / 16.0)


def test_lambda0_hje3_drift():
    ladder = [2.0**k / 16.0 for k in range(12)]
    oracle = ladder_oracle(lambda lam: hje3(lam, 1.0), ladder)
    rep = lambda0_for_SG(hje3(1.0, 1.0), 0.9, WINDOW)
    assert rep.lambda0 == pytest.approx(oracle)
    assert rep.lambda0 == pytest.approx(4.0)
    assert rep.lambda0 <= 2.0**10
    # strictness genuinely fails at lambda0 / 4
    lam_low = rep.lambda0 / 4.0
    params = construct_barrier(hje3(lam_low, 1.0), 0.9, WINDOW, relaxed=True)
    assert not verify_strict(hje3(lam_low, 1.0), params).passed


def test_lambda0_ex2_diffusion():
    ladder = [2.0**k / 16.0 for k in range(12)]

    def builder(lam):
        base = ex2()
        return base.with_lambda(lam)

    oracle = ladder_oracle(builder, ladder)
    rep = lambda0_for_SG(ex2(), 0.9, WINDOW)
    assert rep.lambda0 == pytest.approx(oracle)
    assert rep.lambda0 == pytest.approx(4.0)
    lam_low = rep.lambda0 / 4.0
    params = construct_barrier(builder(lam_low), 0.9, WINDOW, relaxed=True)
    assert not verify_strict(builder(lam_low), params).passed


def test_lambda0_monotone_in_drift_scale():
    # scaling b0 down pointwise cannot raise the ladder value
    def scaled(lam, s):
        op = DriftDiffusionOperator(sigma=np.eye(1),
                                    b=lambda x, s=s: s * as_point(x), N=1)
        return ProblemSpec(N=1, lam=lam, operator=op,
                           hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
                           q=2.0, f=lambda x: 0.0, C0=1.0)

    lams = []
    for s in (1.0, 0.5, 0.25):
        rep = lambda0_for_SG(scaled(1.0, s), 0.9, WINDOW)
        lams.append(rep.lambda0)
    assert lams[0] >= lams[1] >= lams[2]


def test_linear_case_trivial():
    bar, rep = linear_case_barrier(no_h_problem(), WINDOW)
    assert bar.alpha == 1.0 and bar.C1 == 1.0
    assert rep.passed


def test_linear_case_with_f_bracket():
    problem = no_h_problem().with_f(lambda x: bracket(x))
    bar, rep = linear_case_barrier(problem, WINDOW)
    assert rep.passed
    assert bar.C_eps == 0.0


def test_linear_case_sg_coefficients_need_large_lambda():
    # residual = lam C1 + (lam - 2)<x>^2 for sigma0 = <x>, alpha = 1:
    # fails for lam = 1, first ladder pass at lam = 2 (constant term carries it)
    bad = no_h_problem(sigma0_growing=True, lam=1.0)
    _, rep = linear_case_barrier(bad, WINDOW)
    assert not rep.passed
    ladder_rep = lambda0_for_SG(bad, 0.9, WINDOW)
    assert ladder_rep.lambda0 == pytest.approx(2.0)
    _, rep_hi = linear_case_barrier(bad.with_lambda(ladder_rep.lambda0), WINDOW)
    assert rep_hi.passed


def test_linear_case_rejects_h():
    with pytest.raises(ValueError):
        linear_case_barrier(eq13(1.0, 2.0), WINDOW)


def test_barrier_growth_class():
    problem = eq13(1.0, 2.0)
    mu = 0.9
    params = construct_barrier(problem, mu, WINDOW)
    phi = lambda x: eval_barrier(params, x)[0]
    rep = classify_growth(phi, params.q_prime, dim=1)
    assert rep.in_SG and not rep.in_S
    assert rep.liminf_plus == pytest.approx((1 - mu) * params.alpha, abs=1e-3)


def test_system_extremal_reduces_to_scalar():
    from viscompare.systems import system2

    sys2 = system2("none", lam=1.0)
    params = construct_barrier(eq13(1.0, 2.0), 0.9, WINDOW)
    x = np.array([1.5])
    w, g, h = 0.7, np.array([0.3]), np.array([[0.1]])
    scalar = extremal_residual(eq13(1.0, 2.0), params, w, g, h, x)
    via_system = system_extremal_residual(sys2, [params, params], w, g, h, x)
    assert via_system == pytest.approx(scalar, rel=1e-12)


def test_system_extremal_min_selects_smaller_f():
    from viscompare.systems import MonotoneSystem, SystemComponent

    op = DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1)
    comps = tuple(
        SystemComponent(operator=op, hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
                        f=(lambda x: 1.0) if k == 0 else (lambda x: 5.0))
        for k in range(2)
    )
    system = MonotoneSystem(lam=1.0, q=2.0, components=comps, C0=1.0)
    params = construct_barrier(eq13(1.0, 2.0), 0.9, WINDOW)
    x = np.zeros(1)
    # -(mu-1) f = +(1-mu) f: the k = 0 branch (f = 1) gives the smaller term
    val = system_extremal_residual(system, [params, params], 0.0, np.zeros(1),
                                   np.zeros((1, 1)), x)
    scalar_f1 = extremal_residual(eq13(1.0, 2.0).with_f(lambda x: 1.0), params,
                                  0.0, np.zeros(1), np.zeros((1, 1)), x)
    assert val == pytest.approx(scalar_f1, rel=1e-12)


def test_nan_residual_fails_closed_at_first_nonfinite_node():
    window = Window(radius=10.0, nodes=101)
    grid = np.linspace(-10.0, 10.0, 101)
    params = construct_barrier(eq13(1.0, 2.0), mu=0.9, window=window)
    rep = verify_strict(eq13(1.0, 2.0).with_f(lambda x: float("nan")), params, grid)
    assert not rep.passed
    assert np.isnan(rep.min_residual)
    assert rep.argmin[0] == -10.0
    # NaN only right of 0.5: the report points at the first such node
    nan_right = lambda x: float("nan") if x[0] > 0.5 else 0.0
    rep = verify_strict(eq13(1.0, 2.0).with_f(nan_right), params, grid)
    assert not rep.passed and np.isnan(rep.min_residual)
    assert rep.argmin[0] == pytest.approx(0.6)

    op = DriftDiffusionOperator(
        sigma=np.eye(1), b=lambda x: np.array([float("nan") if x[0] > 0.5 else 0.0]), N=1)
    linear = ProblemSpec(N=1, lam=1.0, operator=op, hamiltonian=None, q=2.0, f=0.0)
    _, rep = linear_case_barrier(linear, window)
    assert not rep.passed and np.isnan(rep.min_residual)
    assert rep.argmin[0] == pytest.approx(0.6)


def test_strictness_report_keeps_residuals_out_of_the_report():
    window = Window(radius=10.0, nodes=101)
    problem = eq13(1.0, 2.0)
    params = construct_barrier(problem, mu=0.9, window=window)
    pts = np.linspace(-10.0, 10.0, 101)
    rep = verify_strict(problem, params, pts)
    want = [extremal_residual(problem, params, *eval_barrier(params, x), x) for x in pts]
    assert np.array_equal(rep.residuals, want)
    assert rep.min_residual == min(want)
    assert "residuals" not in rep.to_json_dict()
    assert "residuals" not in repr(rep)
    assert dataclasses.replace(rep, residuals=None) == rep


# The residual arrays are pinned against the pointwise reference
# (eval_barrier / extremal_residual, bracket_power_derivatives) bit for bit.

def diagonal_drift_2d():
    # non-constant diagonal sigma and linear drift: SG_1, so relaxed
    op = DriftDiffusionOperator(
        sigma=lambda x: np.diag([1.0 + 0.5 * np.sin(x[0]), 0.8 + 0.3 * np.cos(x[1])]),
        b=lambda x: np.array([0.3 * x[0] - 0.1, -0.2 * x[1]]), N=2)
    return ProblemSpec(N=2, lam=1.5, operator=op,
                       hamiltonian=PowerHamiltonian(A=np.eye(2), q=2.0),
                       q=2.0, f=lambda x: 0.5 + 0.1 * x[0], C0=1.0)


def mesh_2d(radius, n=20):
    ax = np.linspace(-radius, radius, n)
    return np.array([[a, b] for a in ax for b in ax])


@pytest.mark.parametrize("problem, relaxed", [
    (eq13(1.0, q, f=lambda x: bracket(x), N=N), False) for N in (1, 2) for q in (1.5, 2.0, 3.0)
] + [(diagonal_drift_2d(), True)])
def test_verify_strict_residuals_equal_pointwise_reference(problem, relaxed):
    window = Window(radius=50.0, nodes=401)
    grid = np.linspace(-50.0, 50.0, 401) if problem.N == 1 else mesh_2d(50.0)
    for mu in (0.5, 0.9):
        params = construct_barrier(problem, mu, window, relaxed=relaxed)
        rep = verify_strict(problem, params, grid)
        pts = grid.reshape(len(grid), -1)
        want = np.array([extremal_residual(problem, params, *eval_barrier(params, x), x)
                         for x in pts])
        assert np.array_equal(rep.residuals, want)


@pytest.mark.parametrize("problem", [
    ProblemSpec(N=1, lam=0.7, q=2.0, hamiltonian=None, f=0.0, operator=DriftDiffusionOperator(
        sigma=lambda x: np.array([[np.sqrt(1.0 + x[0] ** 2)]]),
        b=lambda x: np.array([0.5 * x[0]]), N=1)),
    ProblemSpec(N=2, lam=3.0, q=1.5, hamiltonian=None, f=0.0, operator=DriftDiffusionOperator(
        sigma=lambda x: np.diag([np.sqrt(1.0 + x[0] ** 2), 1.0]),
        b=lambda x: np.array([x[0], -0.5 * x[1]]), N=2)),
])
def test_linear_case_residuals_equal_pointwise_formula(problem):
    window = Window(radius=20.0, nodes=401)
    bar, rep = linear_case_barrier(problem, window)
    want = []
    for x in window_points(window, problem.N):
        grad, hess = bracket_power_derivatives(x, bar.q_prime)
        value = bar.C1 + bar.alpha * bracket(x) ** bar.q_prime
        gnorm = float(np.linalg.norm(bar.alpha * grad))
        want.append(bar.lam * value + problem.P(x, bar.alpha * hess) - problem.b0_at(x) * gnorm)
    assert np.array_equal(rep.residuals, want)


def nan_on_interval(x):
    return 0.5 < x[0] < 5.0


@pytest.mark.parametrize("problem", [
    eq13(1.0, 2.0, f=lambda x: float("nan") if nan_on_interval(x) else 0.0),
    ProblemSpec(N=1, lam=1.0, q=2.0, f=0.0, C0=1.0,
                hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
                operator=DriftDiffusionOperator(
                    sigma=lambda x: np.full((1, 1), np.nan if nan_on_interval(x) else 1.0),
                    b=np.zeros(1), N=1)),
], ids=["f", "sigma"])
def test_nan_data_inside_the_window_skip_the_constants_and_fail_strictness(problem):
    # the growth shells sit at |x| >= 10, so the NaN interval passes growth;
    # the constant estimates skip NaN entries and strictness fails at the
    # first NaN node of the 2001-node window the params were built on
    params = construct_barrier(problem, 0.9, Window(radius=1.0e3, nodes=2001))
    assert params.to_json_dict() == {
        "mu": 0.9, "q": 2.0, "q_prime": 2.0, "lam": 1.0, "C0": 1.0, "C0_prime": 8.0,
        "eps": 0.25, "eps_prime": 1.0 / 128.0, "C_eps": 1.0, "C_eps_prime": 0.0,
        "alpha": 1.0 / 32.0, "C1": 2.0, "beta_mu": params.beta_mu, "window_radius": 1.0e3,
    }
    assert params.beta_mu == beta_mu(0.9, 2.0, 1.0)
    rep = verify_strict(problem, params).to_json_dict()
    assert np.isnan(rep.pop("min_residual"))
    assert rep == {"argmin": [1.0], "passed": False, "grid_size": 2001, "window_radius": 1.0e3}


def test_lambda0_ladder_samples_the_window_once():
    # sigma is evaluated once per window point for the whole 7-rung ladder,
    # plus the growth check's shell samples (two directions per radius in 1-d)
    calls = []

    def sigma(x):
        calls.append(x)
        return np.eye(1)

    op = DriftDiffusionOperator(sigma=sigma, b=lambda x: as_point(x), N=1)
    problem = ProblemSpec(N=1, lam=1.0, operator=op,
                          hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
                          q=2.0, f=0.0, C0=1.0)
    rep = lambda0_for_SG(problem, 0.9, WINDOW)
    assert rep.lambda0 == 4.0 and len(rep.rungs) == 7
    assert len(calls) == WINDOW.nodes + 2 * len(DEFAULT_RADII)


def counting_problem(calls):
    def sigma(x):
        calls.append(x)
        return np.eye(1)

    op = DriftDiffusionOperator(sigma=sigma, b=np.zeros(1), N=1)
    return ProblemSpec(N=1, lam=1.0, operator=op,
                       hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
                       q=2.0, f=0.0, C0=1.0)


def test_construct_and_verify_sample_the_window_once():
    # sigma0 is evaluated once per window point, plus the growth check's
    # shell samples (two directions per radius in 1-d)
    calls = []
    problem = counting_problem(calls)
    params = construct_barrier(problem, 0.9, WINDOW)
    rep = verify_strict(problem, params)
    assert rep.passed and rep.grid_size == WINDOW.nodes
    # with_lambda keeps the sampled data, and so does another mu
    verify_strict(problem.with_lambda(0.25), params)
    verify_strict(problem, params.with_mu(0.5))
    assert len(calls) == WINDOW.nodes + 2 * len(DEFAULT_RADII)


def test_verify_strict_samples_other_data_on_the_params_window():
    calls = []
    problem = counting_problem(calls)
    params = construct_barrier(problem, 0.9, WINDOW)
    before = len(calls)
    # another f: same window nodes, sampled afresh
    rep = verify_strict(problem.with_f(lambda x: 0.0), params)
    assert rep.grid_size == WINDOW.nodes and len(calls) == before + WINDOW.nodes
    # an explicit grid is always sampled
    rep = verify_strict(problem, params, grid=np.linspace(-1.0, 1.0, 11))
    assert rep.grid_size == 11 and len(calls) == before + WINDOW.nodes + 11


def test_params_from_a_2001_node_window_verify_on_2001_nodes():
    params = construct_barrier(eq13(1.0), 0.9, WINDOW)
    assert params.window == WINDOW
    assert verify_strict(eq13(1.0), params).grid_size == 2001


def test_with_mu_matches_a_fresh_construction_and_stays_off_the_report():
    problem = eq13(1.0)
    params = construct_barrier(problem, 0.9, WINDOW)
    other = params.with_mu(0.5)
    fresh = construct_barrier(problem, 0.5, WINDOW)
    assert other == fresh and other.to_json_dict() == fresh.to_json_dict()
    assert other.window is params.window and other.sample is params.sample
    assert "window=" not in repr(params) and "sample" not in params.to_json_dict()
    with pytest.raises(ValueError, match=r"mu must lie in \(0,1\), got 1.5"):
        params.with_mu(1.5)
