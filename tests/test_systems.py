import numpy as np
import pytest

from viscompare.hamiltonians import PowerHamiltonian
from viscompare.operators import DriftDiffusionOperator
from viscompare.problems import eq12, eq12_solutions
from viscompare.residual import SmoothCandidate, pde_residual
from viscompare.solver import Box, solve
from viscompare.systems import (
    MonotoneSystem,
    SystemComponent,
    check_F2prime,
    check_M,
    manufactured_system_rhs,
    max_component_gap,
    solve_system,
    system2,
    system_residual,
)

SIN = SmoothCandidate(value=lambda x: np.sin(float(x[0])),
                      gradient=lambda x: np.array([np.cos(float(x[0]))]),
                      hessian=lambda x: np.array([[-np.sin(float(x[0]))]]), label="sin")
COS = SmoothCandidate(value=lambda x: np.cos(float(x[0])),
                      gradient=lambda x: np.array([-np.sin(float(x[0]))]),
                      hessian=lambda x: np.array([[-np.cos(float(x[0]))]]), label="cos")


def rs_samples(m, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-2, 2, m), rng.uniform(-2, 2, m)) for _ in range(n)]


def test_check_M_decoupled_equality():
    system = system2("none")
    rep = check_M(system, rs_samples(2, 200))
    assert rep.passed
    assert rep.worst == pytest.approx(0.0, abs=1e-12)


def test_check_M_mean_coupling_passes():
    rng = np.random.default_rng(1)
    comps = tuple(
        SystemComponent(
            operator=DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1),
            hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
            f=lambda x: 0.0,
            coupling=lambda r, k=k: 0.7 * (float(r[k]) - float(np.mean(r))),
        )
        for k in range(3)
    )
    system = MonotoneSystem(lam=1.0, q=2.0, components=comps, C0=1.0)
    rep = check_M(system, rs_samples(3, 1000, seed=2))
    assert rep.passed
    # oracle: at the argmax j, r_j - s_j >= mean(r - s), so the coupling
    # difference is nonnegative there
    for r, s in rs_samples(3, 50, seed=3):
        j = int(np.argmax(r - s))
        if r[j] - s[j] >= 0:
            assert (r[j] - s[j]) - np.mean(r - s) >= -1e-12


def test_check_M_negative_coupling_fails_with_witness():
    system = system2("minus2lam")
    rep = check_M(system, rs_samples(2, 500, seed=4))
    assert not rep.passed
    r, s, j = rep.witness
    assert r[j] - s[j] > 0  # witness has a genuinely positive gap


def test_check_M_requires_one_admissible_pair():
    system = system2("none")
    with pytest.raises(ValueError):
        check_M(system, [(np.array([0.0, 0.0]), np.array([1.0, 1.0]))])


def test_F2prime_linear_passes_exactly():
    system = system2("mean", c=0.7)
    rng = np.random.default_rng(5)
    samples = [(np.zeros(1), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1), np.eye(1))
               for _ in range(50)]
    rep = check_F2prime(system, samples, thetas=(0.0, 0.5, 2.0))
    assert rep.passed


def test_F2prime_zero_theta_zero_value():
    system = system2("none")
    assert system.F(0, np.zeros(1), np.zeros(2), np.zeros(1), np.zeros((1, 1))) == 0.0


def test_F2prime_affine_coupling_fails():
    comps = tuple(
        SystemComponent(
            operator=DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1),
            hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
            f=lambda x: 0.0,
            coupling=lambda r: float(r[0]) + 1.0,  # constant offset
        )
        for _ in range(2)
    )
    system = MonotoneSystem(lam=1.0, q=2.0, components=comps, C0=1.0)
    samples = [(np.zeros(1), np.array([0.3, -0.2]), np.zeros(1), np.zeros((1, 1)))]
    rep = check_F2prime(system, samples, thetas=(2.0,))
    assert not rep.passed


def test_system_residual_decoupled_eq12_pair():
    system = system2("none")
    _, u2 = eq12_solutions(1.0)
    for x in np.linspace(-5, 5, 41):
        for k in range(2):
            assert system_residual(system, [u2, u2], k, np.array([x])) == pytest.approx(
                0.0, abs=1e-12
            )


def test_system_residual_equal_candidates_zero_coupling():
    system = system2("mean", c=2.0)
    _, u2 = eq12_solutions(1.0)
    # equal components: r_k - mean(r) = 0, coupling contributes nothing
    for x in (-1.0, 0.5, 3.0):
        assert system_residual(system, [u2, u2], 0, np.array([x])) == pytest.approx(
            0.0, abs=1e-12
        )


def test_system_residual_manufactured_pair():
    system = system2("mean", c=0.5)
    f_list = [
        lambda x, k=k: manufactured_system_rhs(system, [SIN, COS], k, x)
        for k in range(2)
    ]
    coupled = system2("mean", c=0.5, f_list=f_list)
    for x in np.linspace(-2, 2, 21):
        for k in range(2):
            assert system_residual(coupled, [SIN, COS], k, np.array([x])) == pytest.approx(
                0.0, abs=1e-12
            )


def test_mu_scaled_system_residual_identity():
    # linear coupling + quadratic-homogeneous gradient terms: the mu-scaled
    # candidate's residual in the mu-system equals mu times the original
    system = system2("mean", c=0.7, f_list=[lambda x: 1.0, lambda x: -0.5])
    rng = np.random.default_rng(11)
    for _ in range(100):
        c2, c0 = rng.uniform(-1, 1, 2)
        cand = SmoothCandidate(
            value=lambda x, a=c2, b=c0: a * float(x[0]) ** 2 + b,
            gradient=lambda x, a=c2: np.array([2.0 * a * float(x[0])]),
            hessian=lambda x, a=c2: np.array([[2.0 * a]]),
        )
        mu = float(rng.uniform(0.1, 0.9))
        x = rng.uniform(-3, 3, 1)
        for k in range(2):
            r = np.array([cand.val(x), cand.val(x)])
            g = cand.grad(x)
            X = cand.hess(x)
            scaled = (
                system.F(k, x, mu * r, mu * g, mu * X)
                + mu ** (1.0 - system.q) * system.Hval(k, x, mu * g)
                - mu * system.f_at(k, x)
            )
            plain = system_residual(system, [cand, cand], k, x)
            assert scaled == pytest.approx(mu * plain, rel=1e-12, abs=1e-12)


def test_max_component_gap_trivials():
    system = system2("none")
    _, u2 = eq12_solutions(1.0)
    v, k = max_component_gap(system, [u2, u2], [u2, u2], 0.999999, np.array([1.0]))
    assert abs(v) <= 1e-5 * abs(u2.val(np.array([1.0])))
    one = SmoothCandidate(value=lambda x: 1.0, gradient=lambda x: np.zeros(1),
                          hessian=lambda x: np.zeros((1, 1)))
    zero = SmoothCandidate(value=lambda x: 0.0, gradient=lambda x: np.zeros(1),
                           hessian=lambda x: np.zeros((1, 1)))
    v, k = max_component_gap(system, [one, one], [zero, one], 0.5, np.zeros(1))
    assert k == 0 and v == pytest.approx(0.5)


def test_max_component_gap_crossing_continuous():
    system = system2("none")
    lin_up = SmoothCandidate(value=lambda x: float(x[0]), gradient=lambda x: np.ones(1),
                             hessian=lambda x: np.zeros((1, 1)))
    lin_dn = SmoothCandidate(value=lambda x: -float(x[0]), gradient=lambda x: -np.ones(1),
                             hessian=lambda x: np.zeros((1, 1)))
    zero = SmoothCandidate(value=lambda x: 0.0, gradient=lambda x: np.zeros(1),
                           hessian=lambda x: np.zeros((1, 1)))
    xs = np.linspace(-1, 1, 401)
    vals, ks = [], []
    for x in xs:
        v, k = max_component_gap(system, [lin_up, lin_dn], [zero, zero], 0.5, np.array([x]))
        vals.append(v)
        ks.append(k)
    assert ks[0] == 1 and ks[-1] == 0  # argmax switches at the crossing
    h = xs[1] - xs[0]
    assert max(abs(a - b) for a, b in zip(vals, vals[1:])) <= 0.5 * h + 1e-12


def test_max_component_gap_one_lipschitz_in_values():
    system = system2("none")
    rng = np.random.default_rng(6)
    for _ in range(100):
        u_vals = rng.uniform(-2, 2, 2)
        v_vals = rng.uniform(-2, 2, 2)
        delta = rng.uniform(-0.5, 0.5, 2)

        def cands(vals):
            return [SmoothCandidate(value=lambda x, v=v: float(v),
                                    gradient=lambda x: np.zeros(1),
                                    hessian=lambda x: np.zeros((1, 1))) for v in vals]

        mu = 0.8
        w1, _ = max_component_gap(system, cands(u_vals), cands(v_vals), mu, np.zeros(1))
        w2, _ = max_component_gap(system, cands(u_vals + delta), cands(v_vals), mu, np.zeros(1))
        assert abs(w2 - w1) <= np.abs(delta).max() + 1e-12


def test_solve_system_decoupled_bit_identical():
    system = system2("none")
    box = Box(center=(0.0,), half_width=(2.0,))
    fields, rep = solve_system(system, box, 0.05, [0.0, 0.0])
    assert rep.converged and rep.sweeps == 1
    scalar_sol, _ = solve(system.scalar_problem(0), box, 0.05, 0.0)
    for k in range(2):
        assert np.array_equal(fields[k].values, scalar_sol.values)


def test_solve_system_manufactured_coupled_first_order():
    def build(c):
        base = system2("mean", c=c)
        f_list = [lambda x, k=k: manufactured_system_rhs(base, [SIN, COS], k, x)
                  for k in range(2)]
        return system2("mean", c=c, f_list=f_list)

    system = build(0.5)
    box = Box(center=(0.0,), half_width=(2.0,))
    errs = []
    for h in (0.1, 0.05, 0.025):
        fields, rep = solve_system(system, box, h,
                                   [lambda x: SIN.val(x), lambda x: COS.val(x)])
        assert rep.converged
        err = 0.0
        for k, cand in enumerate((SIN, COS)):
            exact = np.array([cand.val(p) for p in fields[k].points()])
            err = max(err, float(np.abs(fields[k].values - exact).max()))
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_solve_system_sweep_residuals_nonincreasing():
    system = system2("mean", c=0.5, f_list=[lambda x: 1.0, lambda x: 2.0])
    fields, rep = solve_system(system, Box(center=(0.0,), half_width=(2.0,)), 0.05,
                               [0.0, 0.0])
    assert rep.converged
    hist = rep.sweep_residuals
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_solve_system_ordered_data_ordered_solutions():
    system = system2("none", f_list=[lambda x: 0.5, lambda x: 1.5])
    fields, rep = solve_system(system, Box(center=(0.0,), half_width=(2.0,)), 0.05,
                               [0.0, 0.0])
    assert rep.converged
    assert np.all(fields[0].values <= fields[1].values + 1e-12)


def test_m1_reduces_to_scalar():
    comp = SystemComponent(
        operator=DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1),
        hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
        f=lambda x: 1.0,
    )
    system = MonotoneSystem(lam=1.0, q=2.0, components=(comp,), C0=1.0)
    problem = system.scalar_problem(0)
    _, u2 = eq12_solutions(1.0)
    x = np.array([0.7])
    assert system_residual(system, [u2], 0, x) == pytest.approx(
        pde_residual(problem, u2, x), rel=1e-12
    )
    box = Box(center=(0.0,), half_width=(2.0,))
    fields, rep = solve_system(system, box, 0.1, [0.0])
    scalar_sol, _ = solve(problem, box, 0.1, 0.0)
    assert np.array_equal(fields[0].values, scalar_sol.values)


def test_solve_system_samples_each_component_once_per_node():
    # every inner solve of every sweep reuses the component's grid operator
    calls = []

    def sigma(x):
        calls.append(x)
        return np.eye(1)

    coupled = system2(coupling="mean", c=0.5)
    comps = tuple(
        SystemComponent(operator=DriftDiffusionOperator(sigma=sigma, b=np.zeros(1), N=1),
                        hamiltonian=c.hamiltonian, f=c.f, coupling=c.coupling)
        for c in coupled.components)
    system = MonotoneSystem(lam=1.0, q=2.0, components=comps, C0=1.0)
    _, rep = solve_system(system, Box((0.0,), (2.0,)), 0.1, [0.2, -0.3])
    assert rep.converged and rep.sweeps == 11
    assert len(calls) == 2 * 39  # two components, 39 interior nodes each


def test_solve_system_refuses_non_finite_f_naming_the_node():
    f0 = lambda x: float("nan") if np.isclose(x[0], 0.5) else 0.0
    system = system2("mean", c=0.5, f_list=[f0, 0.0])
    with pytest.raises(ValueError, match=r"f is not finite at node \[0\.5\]"):
        solve_system(system, Box(center=(0.0,), half_width=(1.0,)), 0.25, [0.0, 0.0])
