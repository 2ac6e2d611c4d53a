"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is pinned, nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest
from pointwise_oracle import game_term

from viscompare.barrier import Window, construct_barrier, lambda0_for_SG, verify_strict
from viscompare.fields import Polynomial
from viscompare.growth import bracket, classify_growth
from viscompare.hamiltonians import GameHamiltonian
from viscompare.problems import (
    eq12,
    eq12_solutions,
    eq13,
    ex2,
    ex2_solutions,
    game_problem,
    hje3,
    hje3_solutions,
    signswitch,
)
from viscompare.residual import (
    SmoothCandidate,
    mu_subsolution_residual,
    pde_residual,
    verify_solution,
)
from viscompare.solver import (
    Box,
    comparison_check,
    gamma_pinning_check,
    manufactured_rhs,
    solve,
)
from viscompare.systems import (
    check_M,
    manufactured_system_rhs,
    solve_system,
    system2,
)


def report(criterion, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_closed_form_certification():
    """Residuals of the closed-form pairs <= 1e-10 on [-10,10], < 1 s."""
    grid = np.linspace(-10.0, 10.0, 501)
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        problem = eq12(lam)
        for cand in eq12_solutions(lam):
            worst = max(worst, verify_solution(problem, cand, grid).max_abs_residual)
    for lam, t in ((1.0, -1.0), (1.0, -2.0)):
        problem = hje3(lam, t)
        for cand in hje3_solutions(lam, t):
            worst = max(worst, verify_solution(problem, cand, grid).max_abs_residual)
    problem = ex2()
    for cand in ex2_solutions():
        worst = max(worst, verify_solution(problem, cand, grid).max_abs_residual)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-10 and elapsed < 1.0,
           f"max residual {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_mu_homogeneity_identity():
    """mu-residual = mu * residual to 1e-12 on 10^3 random triples."""
    rng = np.random.default_rng(2024)
    problems = [
        eq12(1.0),
        eq13(1.3, 2.0, f=lambda x: np.cos(float(x[0]))),
        hje3(0.7, -1.5),
    ]
    worst = 0.0
    for i in range(1000):
        problem = problems[i % len(problems)]
        coeffs = {(k,): float(c) for k, c in enumerate(rng.uniform(-1, 1, 4))}
        cand = SmoothCandidate.from_polynomial(Polynomial.from_table(coeffs, 1))
        mu = float(rng.uniform(0.05, 0.95))
        x = rng.uniform(-5, 5, 1)
        lhs = mu_subsolution_residual(problem, cand, mu, x)
        rhs = mu * pde_residual(problem, cand, x)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    report(2, worst <= 1e-12, f"worst relative deviation {worst:.2e} over 1000 triples")


def test_criterion_3_barrier_strictness():
    """Strict barriers for the bounded-coefficient model problem, with the
    pinned constant chain eps=0.25, alpha=1/32, C0'=8 at q=2, lambda=1."""
    window = Window(radius=1.0e3, nodes=10000)
    grid = np.linspace(-1.0e3, 1.0e3, 10000)
    ok = True
    details = []
    for f in (lambda x: 0.0, lambda x: bracket(x), lambda x: 5.0 * bracket(x)):
        problem = eq13(1.0, 2.0, f=f)
        for mu in (0.5, 0.9, 0.99):
            params = construct_barrier(problem, mu, window)
            chain = (
                params.eps == pytest.approx(0.25)
                and params.alpha == pytest.approx(1.0 / 32.0)
                and params.C0_prime == pytest.approx(8.0)
                and params.eps <= params.lam / 4.0 + 1e-15
                and params.alpha ** (params.q - 1.0) * params.C0_prime <= params.lam / 4.0 + 1e-15
                and params.eps_prime <= params.lam * params.alpha / 4.0 + 1e-15
            )
            rep = verify_strict(problem, params, grid=grid)
            ok = ok and chain and rep.passed
            details.append(rep.min_residual)
    report(3, ok, f"9/9 strict, min residuals down to {min(details):.3e}")


def test_criterion_4_lambda0_ladder():
    """Finite lambda0 <= 2^10 for the linear-growth examples; strictness
    genuinely fails at lambda0 / 4."""
    window = Window(radius=1.0e3, nodes=2001)
    ok = True
    details = []
    for problem in (hje3(1.0, 1.0), ex2()):
        rep = lambda0_for_SG(problem, 0.9, window)
        ok = ok and rep.lambda0 is not None and rep.lambda0 <= 2.0**10
        lam_low = rep.lambda0 / 4.0
        low = problem.with_lambda(lam_low)
        params = construct_barrier(low, 0.9, window, relaxed=True)
        ok = ok and not verify_strict(low, params).passed
        details.append(f"{problem.name}: lambda0={rep.lambda0:g}")
    report(4, ok, "; ".join(details))


def test_criterion_5_growth_dichotomy():
    """u2 of the quadratic example in S_2^- \\ S_2^+; v2 of the growing-
    diffusion example in SG_2 \\ S_2; surrogates within 1e-3 of -lam/4, 1/4."""
    lam = 1.0
    _, u2 = eq12_solutions(lam)
    rep_u2 = classify_growth(lambda x: u2.val(x), 2.0, dim=1)
    _, v2 = ex2_solutions()
    rep_v2 = classify_growth(lambda x: v2.val(x), 2.0, dim=1)
    ok = (
        rep_u2.in_S_minus and not rep_u2.in_S_plus and rep_u2.in_SG
        and rep_v2.in_SG and not rep_v2.in_S
        and rep_u2.liminf_plus == pytest.approx(-lam / 4.0, abs=1e-3)
        and rep_v2.liminf_plus == pytest.approx(0.25, abs=1e-3)
    )
    report(5, ok,
           f"u2 surrogate {rep_u2.liminf_plus:.6f} (target -0.25), "
           f"v2 surrogate {rep_v2.liminf_plus:.6f} (target 0.25)")


def test_criterion_6_discrete_comparison():
    """50 random ordered data pairs: ordered solutions, zero violations,
    monotone certificate in every run."""
    rng = np.random.default_rng(6)
    problem = eq13(1.0, 2.0)
    box = Box(center=(0.0,), half_width=(5.0,))
    violations = 0
    certificates = True
    for _ in range(50):
        a = rng.uniform(-1, 1, 3)
        f_low = lambda x, a=a: (a[0] + a[1] * np.sin(float(x[0]))
                                + a[2] * np.cos(2.0 * float(x[0])))
        bump = float(rng.uniform(0.0, 1.0))
        f_high = lambda x, f=f_low, c=bump: f(x) + c * (1.0 + 0.5 * np.sin(3.0 * float(x[0])))
        b_low = float(rng.uniform(-0.5, 0.5))
        b_high = b_low + float(rng.uniform(0.0, 0.5))
        rep = comparison_check(problem, box, 0.02, f_low, f_high, b_low, b_high)
        if not rep.ordered:
            violations += 1
        certificates = certificates and rep.report_low.monotonicity_certificate \
            and rep.report_high.monotonicity_certificate
    report(6, violations == 0 and certificates,
           f"violations {violations}/50, certificates all true: {certificates}")


MANUFACTURED_1D = {
    "cos x": SmoothCandidate(
        value=lambda x: np.cos(float(x[0])),
        gradient=lambda x: np.array([-np.sin(float(x[0]))]),
        hessian=lambda x: np.array([[-np.cos(float(x[0]))]]), label="cos"),
    "x^2": SmoothCandidate(
        value=lambda x: float(x[0]) ** 2,
        gradient=lambda x: np.array([2.0 * float(x[0])]),
        hessian=lambda x: np.array([[2.0]]), label="x2"),
}

SINCOS_2D = SmoothCandidate(
    value=lambda x: np.sin(float(x[0])) * np.cos(float(x[1])),
    gradient=lambda x: np.array([
        np.cos(float(x[0])) * np.cos(float(x[1])),
        -np.sin(float(x[0])) * np.sin(float(x[1]))]),
    hessian=lambda x: np.array([
        [-np.sin(float(x[0])) * np.cos(float(x[1])), -np.cos(float(x[0])) * np.sin(float(x[1]))],
        [-np.cos(float(x[0])) * np.sin(float(x[1])), -np.sin(float(x[0])) * np.cos(float(x[1]))]]),
    label="sincos")


def test_criterion_7_manufactured_convergence():
    """Sup-error ratios in [1.5, 2.5] across h in {0.1, 0.05, 0.025}; each
    solve under 10 s."""
    ok = True
    details = []
    for label, cand in MANUFACTURED_1D.items():
        base = eq13(1.0, 2.0)
        problem = base.with_f(lambda x, c=cand: manufactured_rhs(base, c, x))
        errs = []
        for h in (0.1, 0.05, 0.025):
            t0 = time.perf_counter()
            sol, rep = solve(problem, Box(center=(0.0,), half_width=(2.0,)), h,
                             lambda x, c=cand: c.val(x))
            elapsed = time.perf_counter() - t0
            ok = ok and rep.converged and elapsed < 10.0
            exact = np.array([cand.val(p) for p in sol.points()])
            errs.append(float(np.abs(sol.values - exact).max()))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        ok = ok and all(1.5 <= r <= 2.5 for r in ratios)
        details.append(f"{label}: ratios {ratios[0]:.2f},{ratios[1]:.2f}")
    base2 = eq13(1.0, 2.0, N=2)
    problem2 = base2.with_f(lambda x: manufactured_rhs(base2, SINCOS_2D, x))
    errs = []
    for h in (0.1, 0.05, 0.025):
        t0 = time.perf_counter()
        sol, rep = solve(problem2, Box(center=(0.0, 0.0), half_width=(1.0, 1.0)), h,
                         lambda x: SINCOS_2D.val(x))
        elapsed = time.perf_counter() - t0
        ok = ok and rep.converged and elapsed < 10.0
        exact = np.array([SINCOS_2D.val(p) for p in sol.points()]).reshape(sol.values.shape)
        errs.append(float(np.abs(sol.values - exact).max()))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = ok and all(1.5 <= r <= 2.5 for r in ratios)
    details.append(f"sin x cos y (2-d): ratios {ratios[0]:.2f},{ratios[1]:.2f}")
    report(7, ok, "; ".join(details))


def test_criterion_8_gamma_pinning():
    """Gamma-pinning for the cubic sign-switch: deviation decreasing over
    three refinements, final <= 0.05."""
    problem = signswitch(1.0)
    rep = gamma_pinning_check(problem, Box(center=(0.0,), half_width=(1.0,)), 0.025)
    ok = rep.decreasing and rep.deviations[-1] <= 0.05
    report(8, ok, f"deviations {[f'{d:.2e}' for d in rep.deviations]} at h {rep.h_levels}")


def test_criterion_9_game_hamiltonian():
    """Brute-force equivalence, decoupled identity, and positivity witnesses
    for the game form."""
    rng = np.random.default_rng(9)
    worst_eval = 0.0
    for _ in range(1000):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        N, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sigmas = [[rng.normal(size=(N, n)) for _ in range(nb)] for _ in range(na)]
        taus = [[rng.normal(size=(N, n)) for _ in range(nb)] for _ in range(na)]
        H = GameHamiltonian(
            tuple(range(na)), tuple(range(nb)),
            lambda x, a, b, s=sigmas: s[a][b], lambda x, a, b, t=taus: t[a][b])
        x, xi = rng.normal(size=N), rng.normal(size=N)
        brute = min(
            max(game_term(H, x, xi, a, b) for a in range(na)) for b in range(nb)
        )
        worst_eval = max(worst_eval, abs(H(x, xi) - brute))
    worst_dec = 0.0
    for _ in range(1000):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        N, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sig_b = [rng.normal(size=(N, n)) for _ in range(nb)]
        tau_a = [rng.normal(size=(N, n)) for _ in range(na)]
        H = GameHamiltonian(
            tuple(range(na)), tuple(range(nb)),
            lambda x, a, b, s=sig_b: s[b], lambda x, a, b, t=tau_a: t[a])
        x, xi = rng.normal(size=N), rng.normal(size=N)
        direct = min(float(np.dot(s.T @ xi, s.T @ xi)) for s in sig_b) - min(
            float(np.dot(t.T @ xi, t.T @ xi)) for t in tau_a)
        worst_dec = max(worst_dec, abs(H(x, xi) - direct))
    # positivity witnesses reproduce the quadratic lower bound
    from viscompare.hamiltonians import check_H2prime

    gp = game_problem(1.0)
    ham = gp.hamiltonian
    xs = [np.array([v]) for v in np.linspace(-2, 2, 9)]
    delta = 0.5
    rep = check_H2prime(ham, delta, gp.C0, xs)
    lower_ok = rep.passed
    for x in xs:
        for _ in range(20):
            xi = rng.normal(size=1)
            lower_ok = lower_ok and ham(x, xi) >= delta * float(np.dot(xi, xi)) - 1e-12
    ok = worst_eval <= 1e-12 and worst_dec <= 1e-12 and lower_ok
    report(9, ok,
           f"brute-force dev {worst_eval:.1e}, decoupled dev {worst_dec:.1e}, "
           f"H2' lower bound holds: {lower_ok}")


def test_criterion_10_systems():
    """Decoupled system bit-identical to scalar; (M) checker verdicts; coupled
    manufactured pair converges at first order."""
    rng = np.random.default_rng(10)
    box = Box(center=(0.0,), half_width=(2.0,))
    system = system2("none")
    fields, rep = solve_system(system, box, 0.05, [0.0, 0.0])
    scalar_sol, _ = solve(system.scalar_problem(0), box, 0.05, 0.0)
    bit_identical = all(np.array_equal(fields[k].values, scalar_sol.values)
                        for k in range(2))

    r_s = [(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)) for _ in range(500)]
    m_good = check_M(system2("mean", c=0.5), r_s)
    m_bad = check_M(system2("minus2lam"), r_s)
    m_ok = m_good.passed and not m_bad.passed and m_bad.witness is not None

    SIN = SmoothCandidate(value=lambda x: np.sin(float(x[0])),
                          gradient=lambda x: np.array([np.cos(float(x[0]))]),
                          hessian=lambda x: np.array([[-np.sin(float(x[0]))]]))
    COS = SmoothCandidate(value=lambda x: np.cos(float(x[0])),
                          gradient=lambda x: np.array([-np.sin(float(x[0]))]),
                          hessian=lambda x: np.array([[-np.cos(float(x[0]))]]))
    base = system2("mean", c=0.5)
    coupled = system2("mean", c=0.5, f_list=[
        lambda x, k=k: manufactured_system_rhs(base, [SIN, COS], k, x) for k in range(2)
    ])
    errs = []
    for h in (0.1, 0.05, 0.025):
        fields, rep = solve_system(coupled, box, h,
                                   [lambda x: SIN.val(x), lambda x: COS.val(x)])
        err = 0.0
        for k, cand in enumerate((SIN, COS)):
            exact = np.array([cand.val(p) for p in fields[k].points()])
            err = max(err, float(np.abs(fields[k].values - exact).max()))
        errs.append(err)
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    conv_ok = all(1.5 <= r <= 2.5 for r in ratios)
    ok = bit_identical and m_ok and conv_ok
    report(10, ok,
           f"bit-identical {bit_identical}, (M) verdicts ok {m_ok}, "
           f"coupled ratios {ratios[0]:.2f},{ratios[1]:.2f}")
