import dataclasses

import numpy as np
import pytest

from viscompare.fields import Polynomial
from viscompare.problems import (
    closed_forms,
    eq12,
    eq12_solutions,
    eq13,
    ex2,
    ex2_solutions,
    hje3,
    hje3_solutions,
)
from viscompare.residual import (
    SmoothCandidate,
    mu_subsolution_residual,
    pde_residual,
    verify_solution,
)

GRID = np.linspace(-10.0, 10.0, 501)


def test_eq12_both_solutions_certify():
    for lam in (0.5, 1.0, 2.0):
        problem = eq12(lam)
        for cand in eq12_solutions(lam):
            rep = verify_solution(problem, cand, GRID)
            assert rep.sign_classification == "solution"
            assert rep.max_abs_residual <= 1e-10


def test_hje3_solutions_certify():
    for lam, t in ((1.0, -1.0), (1.0, -2.0)):
        problem = hje3(lam, t)
        u1, u2 = hje3_solutions(lam, t)
        for cand in (u1, u2):
            rep = verify_solution(problem, cand, GRID)
            assert rep.sign_classification == "solution"
            assert rep.max_abs_residual <= 1e-10


def test_hje3_minus_one_formula():
    # lam=1, t=-1: u2 = x^2/4 + 1/2
    _, u2 = hje3_solutions(1.0, -1.0)
    assert u2.val(np.array([2.0])) == pytest.approx(0.25 * 4.0 + 0.5)
    problem = hje3(1.0, -1.0)
    rep = verify_solution(problem, u2, GRID)
    assert rep.sign_classification == "solution"
    assert rep.max_abs_residual <= 1e-10


def test_ex2_solutions_certify():
    problem = ex2()
    for cand in ex2_solutions():
        rep = verify_solution(problem, cand, GRID)
        assert rep.sign_classification == "solution"
        assert rep.max_abs_residual <= 1e-10


def test_eq12_ordering_and_growth_story():
    # u2 <= u1 pointwise: the sub lies below the super
    u1, u2 = eq12_solutions(1.0)
    assert all(u2.val(np.array([x])) <= u1.val(np.array([x])) for x in GRID)


def test_manufactured_sine_certifies():
    from viscompare.solver import manufactured_rhs

    u_star = SmoothCandidate(
        value=lambda x: np.sin(float(x[0])),
        gradient=lambda x: np.array([np.cos(float(x[0]))]),
        hessian=lambda x: np.array([[-np.sin(float(x[0]))]]),
        label="sin",
    )
    base = eq13(1.0, 2.0)
    problem = base.with_f(lambda x: manufactured_rhs(base, u_star, x))
    rep = verify_solution(problem, u_star, np.linspace(-np.pi, np.pi, 301))
    assert rep.sign_classification == "solution"
    assert rep.max_abs_residual <= 1e-12


def test_shifted_solution_is_subsolution():
    # subtracting a constant lowers the residual by lam * const everywhere
    lam = 1.0
    problem = eq12(lam)
    _, u2 = eq12_solutions(lam)
    shifted = SmoothCandidate(
        value=lambda x: u2.val(x) - 1.0,
        gradient=u2.grad,
        hessian=u2.hess,
        label="u2 - 1",
    )
    rep = verify_solution(problem, shifted, GRID)
    assert rep.sign_classification == "subsolution"
    assert rep.max_residual == pytest.approx(-lam, abs=1e-10)
    up = SmoothCandidate(value=lambda x: u2.val(x) + 1.0, gradient=u2.grad,
                         hessian=u2.hess, label="u2 + 1")
    assert verify_solution(problem, up, GRID).sign_classification == "supersolution"


def test_mu_identity_exact_solution():
    problem = eq12(1.0)
    _, u2 = eq12_solutions(1.0)
    for mu in (0.3, 0.7, 0.99):
        for x in (-3.0, 0.0, 5.0):
            assert mu_subsolution_residual(problem, u2, mu, np.array([x])) == pytest.approx(
                0.0, abs=1e-12
            )


def test_mu_identity_scales_residual():
    rng = np.random.default_rng(0)
    problem = eq13(1.3, 2.0, f=lambda x: np.cos(float(x[0])))
    for _ in range(200):
        coeffs = {(k,): float(c) for k, c in enumerate(rng.uniform(-1, 1, 4))}
        cand = SmoothCandidate.from_polynomial(Polynomial.from_table(coeffs, 1))
        mu = float(rng.uniform(0.05, 0.95))
        x = rng.uniform(-3, 3, 1)
        lhs = mu_subsolution_residual(problem, cand, mu, x)
        rhs = mu * pde_residual(problem, cand, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_mu_requires_unit_interval():
    problem = eq12(1.0)
    _, u2 = eq12_solutions(1.0)
    for mu in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            mu_subsolution_residual(problem, u2, mu, np.zeros(1))


def test_fd_fallback_matches_analytic():
    u2_analytic = eq12_solutions(1.0)[1]
    fd_only = SmoothCandidate(value=u2_analytic.value, label="fd")
    for x in (-2.0, 0.3, 4.0):
        p = np.array([x])
        assert fd_only.grad(p)[0] == pytest.approx(u2_analytic.grad(p)[0], abs=1e-6)
        assert fd_only.hess(p)[0, 0] == pytest.approx(u2_analytic.hess(p)[0, 0], abs=1e-5)


def test_fd_fallback_certifies_builtin():
    problem = eq12(1.0)
    u2 = eq12_solutions(1.0)[1]
    fd_only = SmoothCandidate(value=u2.value, label="fd u2")
    rep = verify_solution(problem, fd_only, np.linspace(-5, 5, 101), tol=1e-4)
    assert rep.sign_classification == "solution"


def test_fd_consistency_gate_catches_wrong_gradient():
    bad = SmoothCandidate(
        value=lambda x: float(x[0]) ** 2,
        gradient=lambda x: np.array([3.0 * float(x[0])]),  # wrong on purpose
        hessian=None,
        label="bad",
    )
    with pytest.raises(ValueError, match="finite differences"):
        verify_solution(eq12(1.0), bad, np.linspace(-1, 1, 11))


def test_2d_polynomial_candidate():
    problem = eq13(1.0, 2.0, N=2)
    poly = Polynomial.from_table({"2,0": 0.5, "0,2": 0.5, "1,1": 0.25}, 2)
    cand = SmoothCandidate.from_polynomial(poly)
    x = np.array([0.5, -1.0])
    # residual = lam u - tr(D2u) + |Du|^2 - 0
    grad = poly.gradient(x)
    expected = poly(x) - 2.0 + float(grad @ grad)
    assert pde_residual(problem, cand, x) == pytest.approx(expected, rel=1e-12)


def test_report_fields():
    problem = eq12(1.0)
    u1, _ = eq12_solutions(1.0)
    rep = verify_solution(problem, u1, GRID)
    assert rep.grid_size == len(GRID)
    d = rep.to_json_dict()
    assert d["sign_classification"] == "solution"


def test_verify_solution_keeps_residuals_out_of_the_report():
    problem = hje3(1.0, 1.0)
    _, u2 = hje3_solutions(1.0, 1.0)
    grid = np.linspace(-10.0, 10.0, 41)
    rep = verify_solution(problem, u2, grid)
    assert np.array_equal(rep.residuals, [pde_residual(problem, u2, x) for x in grid])
    assert "residuals" not in rep.to_json_dict()
    assert "residuals" not in repr(rep)
    assert dataclasses.replace(rep, residuals=None) == rep


def test_closed_forms_catalogue():
    problem, (u1, u2) = closed_forms("hje3", 2.0, 1.0)
    assert problem.name == "hje3" and problem.lam == 2.0
    assert (u1.label, u2.label) == ("u1", "u2")
    assert u2.val(np.array([0.0])) == hje3_solutions(2.0, 1.0)[1].val(np.array([0.0]))
    problem, sols = closed_forms("ex2", 3.0)
    assert problem.lam == 1.0 and [c.label for c in sols] == ["v1", "v2"]
    with pytest.raises(ValueError, match="no closed-form solutions catalogued for 'eq13'"):
        closed_forms("eq13")
