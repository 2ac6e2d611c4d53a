import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from viscompare.hamiltonians import GameHamiltonian, SignedScalarHamiltonian
from viscompare.operators import DriftDiffusionOperator
from viscompare.problems import (
    ProblemSpec,
    eq12,
    eq12_solutions,
    eq13,
    example1,
    game_problem,
    signswitch,
)
from viscompare.residual import SmoothCandidate
from viscompare.solver import (
    Box,
    DiscreteField,
    DiscreteOperator,
    SchemeConfig,
    comparison_check,
    gamma_pinning_check,
    manufactured_rhs,
    nonuniqueness_demo,
    solve,
)


def candidate(value, grad, hess, label=""):
    return SmoothCandidate(value=value, gradient=grad, hessian=hess, label=label)


COS = candidate(lambda x: np.cos(float(x[0])),
                lambda x: np.array([-np.sin(float(x[0]))]),
                lambda x: np.array([[-np.cos(float(x[0]))]]), "cos")
X2 = candidate(lambda x: float(x[0]) ** 2,
               lambda x: np.array([2.0 * float(x[0])]),
               lambda x: np.array([[2.0]]), "x2")
SINCOS = candidate(
    lambda x: np.sin(float(x[0])) * np.cos(float(x[1])),
    lambda x: np.array([np.cos(float(x[0])) * np.cos(float(x[1])),
                        -np.sin(float(x[0])) * np.sin(float(x[1]))]),
    lambda x: np.array([
        [-np.sin(float(x[0])) * np.cos(float(x[1])), -np.cos(float(x[0])) * np.sin(float(x[1]))],
        [-np.cos(float(x[0])) * np.sin(float(x[1])), -np.sin(float(x[0])) * np.cos(float(x[1]))],
    ]),
    "sincos",
)


def linear_problem(N=1, lam=1.0):
    op = DriftDiffusionOperator(sigma=np.eye(N), b=np.zeros(N), N=N)
    return ProblemSpec(N=N, lam=lam, operator=op, hamiltonian=None, q=2.0,
                       f=lambda x: 0.0)


def sup_error(sol, cand):
    exact = np.array([cand.val(p) for p in sol.points()]).reshape(sol.values.shape)
    return float(np.abs(sol.values - exact).max())


def test_box_validation():
    with pytest.raises(ValueError):
        Box(center=(0.0,), half_width=(-1.0,))
    with pytest.raises(ValueError):
        Box(center=(0.0, 0.0, 0.0), half_width=(1.0, 1.0, 1.0))
    assert Box(center=(0.0, 0.0), half_width=(1.0, 2.0)).N == 2


def test_discrete_field_invariants():
    with pytest.raises(ValueError):
        DiscreteField(axes=(np.linspace(0, 1, 4),), values=np.zeros(4), h=(0.25,))
    with pytest.raises(ValueError):
        DiscreteField(axes=(np.linspace(0, 1, 5),), values=np.full(5, np.nan), h=(0.25,))


def test_grid_is_odd_and_centered():
    disc = DiscreteOperator(eq13(1.0, 2.0), Box(center=(0.0,), half_width=(5.0,)), 0.02)
    assert len(disc.axes[0]) % 2 == 1
    assert disc.axes[0][len(disc.axes[0]) // 2] == pytest.approx(0.0)


def test_constant_solution_exact():
    # lam u - u'' = lam with boundary 1: u = 1 exactly
    lam = 2.0
    problem = linear_problem().with_lambda(lam).with_f(lambda x: lam)
    sol, rep = solve(problem, Box(center=(0.0,), half_width=(2.0,)), 0.1, 1.0)
    assert rep.converged
    assert np.abs(sol.values - 1.0).max() <= 1e-12


def test_quadratic_exact_without_gradient_term():
    # 3-point second difference is exact on quadratics
    base = linear_problem()
    problem = base.with_f(lambda x: manufactured_rhs(base, X2, x))
    sol, rep = solve(problem, Box(center=(0.0,), half_width=(2.0,)), 0.1,
                     lambda x: X2.val(x))
    assert rep.converged and rep.iterations <= 3
    assert sup_error(sol, X2) <= 1e-9


def test_eq12_zero_boundary_gives_zero():
    sol, rep = solve(eq12(1.0), Box(center=(0.0,), half_width=(5.0,)), 0.05, 0.0)
    assert rep.converged
    assert np.abs(sol.values).max() <= 1e-12


def test_eq12_trace_solution_matches_u2():
    lam = 1.0
    problem = eq12(lam)
    _, u2 = eq12_solutions(lam)
    errs = []
    for h in (0.04, 0.02, 0.01):
        sol, rep = solve(problem, Box(center=(0.0,), half_width=(5.0,)), h,
                         lambda x: u2.val(x))
        assert rep.converged and rep.monotonicity_certificate
        errs.append(sup_error(sol, u2))
    assert errs[-1] <= 5e-3
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_manufactured_cos_first_order():
    base = eq13(1.0, 2.0)
    problem = base.with_f(lambda x: manufactured_rhs(base, COS, x))
    errs = []
    for h in (0.1, 0.05, 0.025):
        sol, rep = solve(problem, Box(center=(0.0,), half_width=(2.0,)), h,
                         lambda x: COS.val(x))
        assert rep.converged
        errs.append(sup_error(sol, COS))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_2d_requires_diagonal_diffusion():
    mixing = lambda x: np.array([[1.0, 0.4], [0.4, 1.0]])
    op = DriftDiffusionOperator(sigma=mixing, b=np.zeros(2), N=2)
    problem = ProblemSpec(N=2, lam=1.0, operator=op, hamiltonian=None, q=2.0,
                          f=lambda x: 0.0)
    with pytest.raises(ValueError, match="diagonal"):
        DiscreteOperator(problem, Box(center=(0.0, 0.0), half_width=(1.0, 1.0)), 0.25)


def test_2d_manufactured_first_order():
    base = eq13(1.0, 2.0, N=2)
    problem = base.with_f(lambda x: manufactured_rhs(base, SINCOS, x))
    errs = []
    for h in (0.1, 0.05):
        sol, rep = solve(problem, Box(center=(0.0, 0.0), half_width=(1.0, 1.0)), h,
                         lambda x: SINCOS.val(x))
        assert rep.converged and rep.monotonicity_certificate
        errs.append(sup_error(sol, SINCOS))
    assert 1.5 <= errs[0] / errs[1] <= 2.5


def test_comparison_identical_data():
    problem = eq13(1.0, 2.0)
    rep = comparison_check(problem, Box(center=(0.0,), half_width=(2.0,)), 0.05,
                           f_low=lambda x: 1.0, f_high=lambda x: 1.0,
                           boundary_low=0.0, boundary_high=0.0)
    assert rep.ordered
    assert rep.min_gap == pytest.approx(0.0, abs=1e-12)


def test_comparison_constant_shift_identity():
    # raising f by 1 and the boundary by 1/lam shifts the solution by exactly
    # 1/lam: the gradient term is translation invariant
    lam = 2.0
    problem = eq13(lam, 2.0)
    rep = comparison_check(
        problem, Box(center=(0.0,), half_width=(5.0,)), 0.05,
        f_low=lambda x: np.sin(float(x[0])),
        f_high=lambda x: np.sin(float(x[0])) + 1.0,
        boundary_low=0.0, boundary_high=1.0 / lam,
    )
    assert rep.ordered
    assert rep.min_gap == pytest.approx(1.0 / lam, abs=1e-7)


def test_comparison_boundary_bump():
    problem = eq13(1.0, 2.0)
    rep = comparison_check(problem, Box(center=(0.0,), half_width=(2.0,)), 0.05,
                           f_low=lambda x: 0.0, f_high=lambda x: 0.0,
                           boundary_low=0.0, boundary_high=0.25)
    assert rep.ordered and rep.min_gap >= -1e-12


def test_comparison_validates_ordering_preconditions():
    problem = eq13(1.0, 2.0)
    with pytest.raises(ValueError, match="f_low"):
        comparison_check(problem, Box(center=(0.0,), half_width=(1.0,)), 0.1,
                         f_low=lambda x: 1.0, f_high=lambda x: 0.0,
                         boundary_low=0.0, boundary_high=0.0)


def test_discrete_comparison_random_ordered_pairs():
    rng = np.random.default_rng(42)
    problem = eq13(1.0, 2.0)
    box = Box(center=(0.0,), half_width=(5.0,))
    for trial in range(10):
        a = rng.uniform(-1, 1, 3)
        gap_c = rng.uniform(0.0, 1.0)
        f_low = lambda x, a=a: a[0] + a[1] * np.sin(float(x[0])) + a[2] * np.cos(2 * float(x[0]))
        f_high = lambda x, f=f_low, g=gap_c: f(x) + g * (1.1 + np.sin(float(x[0]))) / 2.1 * 2.1
        b_low = float(rng.uniform(-0.5, 0.5))
        b_high = b_low + float(rng.uniform(0.0, 0.5))
        rep = comparison_check(problem, box, 0.05, f_low, f_high, b_low, b_high)
        assert rep.ordered, (trial, rep.min_gap)
        assert rep.report_low.monotonicity_certificate
        assert rep.report_high.monotonicity_certificate


def test_gamma_pinning_signswitch():
    problem = signswitch(1.0)
    rep = gamma_pinning_check(problem, Box(center=(0.0,), half_width=(1.0,)), 0.025)
    assert rep.decreasing
    assert rep.deviations[-1] <= 0.05
    assert rep.target == pytest.approx(1.0)
    assert rep.hypothesis_checks["A1_A3"] and rep.hypothesis_checks["A4"]


def test_gamma_pinning_zero_f():
    problem = signswitch(1.0).with_f(lambda x: 0.0)
    rep = gamma_pinning_check(problem, Box(center=(0.0,), half_width=(1.0,)), 0.05)
    assert rep.deviations[-1] <= 1e-10


def test_gamma_pinning_reports_the_spacings_it_solved_at():
    # h = 0.1 on [-1, 1]: 4h = 0.4 rounds to m = 2 nodes per half-width, so
    # the coarsest solve runs at spacing 0.5, not 0.4
    rep = gamma_pinning_check(signswitch(1.0), Box(center=(0.0,), half_width=(1.0,)), 0.1)
    assert rep.h_levels == (0.5, 0.2, 0.1)


def test_gamma_pinning_refuses_non_finite_a():
    # a(x) = x up to 0.5 and NaN beyond: the probe of the box is not split
    a = lambda x: float(x[0]) if x[0] <= 0.5 else float("nan")
    problem = dataclasses.replace(signswitch(1.0), hamiltonian=SignedScalarHamiltonian(a=a, q=2.0))
    with pytest.raises(ValueError, match="a\\(x\\) is not finite"):
        gamma_pinning_check(problem, Box(center=(0.0,), half_width=(1.0,)), 0.1)


def test_gamma_pinning_empty_gamma_vacuous():
    op = DriftDiffusionOperator(sigma=np.zeros((1, 1)), b=np.zeros(1), N=1)
    from viscompare.hamiltonians import SignedScalarHamiltonian

    problem = ProblemSpec(N=1, lam=1.0, operator=op,
                          hamiltonian=SignedScalarHamiltonian(a=1.0, q=2.0),
                          q=2.0, f=lambda x: 1.0)
    rep = gamma_pinning_check(problem, Box(center=(0.0,), half_width=(1.0,)), 0.1)
    assert len(rep.gamma_points) == 0
    assert rep.decreasing


def test_nonuniqueness_eq12():
    lam = 1.0
    rep = nonuniqueness_demo("eq12", Box(center=(0.0,), half_width=(5.0,)), 0.02, lam=lam)
    by_label = {b.label: b for b in rep.branches}
    assert by_label["u1"].in_uniqueness_class
    assert not by_label["u2"].in_uniqueness_class
    assert by_label["u2"].growth.in_SG
    for b in rep.branches:
        assert b.max_abs_residual <= 1e-10
        assert b.sup_distance_to_trace <= 2e-2
    # |u1 - u2|(R) = lam R^2/4 + 1/2 at the boundary scale
    expected = lam * 25.0 / 4.0 + 0.5
    assert rep.sup_distance_between == pytest.approx(expected, rel=0.05)


def test_nonuniqueness_ex2():
    rep = nonuniqueness_demo("ex2", Box(center=(0.0,), half_width=(5.0,)), 0.02)
    by_label = {b.label: b for b in rep.branches}
    assert by_label["v1"].in_uniqueness_class
    v2 = by_label["v2"]
    assert not v2.in_uniqueness_class and v2.growth.in_SG
    assert v2.growth.liminf_plus == pytest.approx(0.25, abs=1e-3)


def test_nonuniqueness_hje3_nonnegative_t():
    # t >= 0: u2 is unbounded below yet still certifies as an exact solution
    rep = nonuniqueness_demo("hje3", Box(center=(0.0,), half_width=(5.0,)), 0.02, t=1.0)
    by_label = {b.label: b for b in rep.branches}
    u2 = by_label["u2"]
    assert u2.max_abs_residual <= 1e-10
    assert not u2.in_uniqueness_class
    # downward parabola: boundary values negative, interior max at center
    assert u2.solution.values.min() < -5.0


def test_game_policy_iteration_terminates_fast():
    gp = game_problem(1.0)
    problem = gp.with_f(lambda x: manufactured_rhs(gp, COS, x))
    config = SchemeConfig(damping=1.0)
    sol, rep = solve(problem, Box(center=(0.0,), half_width=(2.0,)), 0.05,
                     lambda x: COS.val(x), config)
    assert rep.converged
    assert rep.iterations <= 10
    hist = rep.residual_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_manufactured_rhs_values():
    # u* = x on the quadratic-gradient model: f = lam x + |1|^2 = x + 1
    base = eq13(1.0, 2.0)
    lin = candidate(lambda x: float(x[0]), lambda x: np.ones(1),
                    lambda x: np.zeros((1, 1)), "x")
    assert manufactured_rhs(base, lin, np.array([2.0])) == pytest.approx(3.0)
    # u* = x^2/2: f = lam x^2/2 - 1 + x^2
    half_sq = candidate(lambda x: 0.5 * float(x[0]) ** 2,
                        lambda x: np.array([float(x[0])]),
                        lambda x: np.array([[1.0]]), "x2/2")
    assert manufactured_rhs(base, half_sq, np.array([3.0])) == pytest.approx(
        0.5 * 9.0 - 1.0 + 9.0
    )
    # u* = 0: f = 0 (gradient term vanishes at 0 by homogeneity)
    zero = candidate(lambda x: 0.0, lambda x: np.zeros(1), lambda x: np.zeros((1, 1)))
    assert manufactured_rhs(base, zero, np.array([1.0])) == 0.0


def test_report_fields_and_json():
    problem = eq13(1.0, 2.0)
    sol, rep = solve(problem, Box(center=(0.0,), half_width=(1.0,)), 0.1, 0.0)
    d = rep.to_json_dict()
    assert "wall_time" not in d
    assert d["converged"] is True
    assert rep.final_residual_norm <= 1e-9


def test_coefficients_evaluated_once_per_grid():
    calls = {"A": 0, "sigma": 0, "tau": 0}

    def A(x):
        calls["A"] += 1
        return np.diag(1.0 + 0.1 * np.asarray(x) ** 2)

    problem = example1(sigma=np.eye(2), b=np.zeros(2), A=A, q=2.0, f=1.0, N=2)
    sol, rep = solve(problem, Box(center=(0.0, 0.0), half_width=(1.0, 1.0)), 0.25, 0.0)
    assert rep.converged and rep.iterations > 5
    assert calls["A"] == 7 * 7  # once per interior node

    def counted(key, value):
        def fn(x, a, b):
            calls[key] += 1
            return np.array([[value(a, b)]])
        return fn

    ham = GameHamiltonian(alpha_set=(0, 1, 2), beta_set=(0, 1),
                          sigma=counted("sigma", lambda a, b: 1.0 + 0.5 * a + 0.1 * b),
                          tau=counted("tau", lambda a, b: 0.25))
    gp = game_problem(1.0)
    problem = ProblemSpec(N=1, lam=1.0, operator=gp.operator, hamiltonian=ham, q=2.0,
                          f=lambda x: 0.5 + float(x[0]) ** 2)
    sol, rep = solve(problem, Box(center=(0.0,), half_width=(1.0,)), 0.1, 0.0)
    assert rep.converged and rep.iterations > 5
    assert calls["sigma"] == calls["tau"] == 19 * 3 * 2


def assemble_reference(disc, slopes, lf):
    """Triplets appended entry by entry, in the order assemble() uses."""
    N = disc.problem.N
    rows, cols, vals = [], [], []
    diag = np.full(disc.n_interior, disc.problem.lam)
    idx = np.arange(disc.n_interior).reshape(disc.int_shape)
    for ax in range(N):
        h = disc.h[ax]
        Deff = disc.D[ax] + lf[:, ax] * h / 2.0
        b = disc.bdrift[:, ax]
        s = slopes[:, ax]
        diag += 2.0 * Deff / h**2 + np.abs(b) / h
        c_plus = -Deff / h**2 + np.minimum(b, 0.0) / h + s / (2.0 * h)
        c_minus = -Deff / h**2 - np.maximum(b, 0.0) / h - s / (2.0 * h)
        take = [slice(None)] * N
        take[ax] = slice(None, -1)
        src = idx[tuple(take)].ravel()
        take[ax] = slice(1, None)
        dst = idx[tuple(take)].ravel()
        for i, j in zip(src, dst):
            rows.append(i), cols.append(j), vals.append(c_plus[i])
        for i, j in zip(src, dst):
            rows.append(j), cols.append(i), vals.append(c_minus[j])
    for i in range(disc.n_interior):
        rows.append(i), cols.append(i), vals.append(diag[i])
    return sp.csr_matrix((np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
                         shape=(disc.n_interior, disc.n_interior))


@pytest.mark.parametrize("N", [1, 2])
def test_assemble_matches_entrywise_reference(N):
    b = (lambda x: np.array([0.3, -0.2])[:N] * np.asarray(x)) if N == 2 else np.array([0.4])
    op = DriftDiffusionOperator(sigma=np.eye(N), b=b, N=N)
    problem = ProblemSpec(N=N, lam=1.0, operator=op, hamiltonian=None, q=2.0, f=0.0)
    disc = DiscreteOperator(problem, Box(center=(0.0,) * N, half_width=(1.0,) * N), 0.2)
    rng = np.random.default_rng(N)
    slopes = rng.normal(scale=20.0, size=(disc.n_interior, N))
    lf = 1.2 * np.abs(slopes)
    A, monotone = disc.assemble(slopes, lf)
    ref = assemble_reference(disc, slopes, lf)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, attr), getattr(ref, attr))
    assert monotone
    _, broken = disc.assemble(slopes, np.zeros_like(slopes))
    assert not broken


def counting_sigma(calls):
    def sigma(x):
        calls.append(x)
        return np.eye(1)
    return sigma


def test_comparison_check_samples_the_coefficients_once_per_node():
    # one grid operator serves the order check and both solves
    calls = []
    op = DriftDiffusionOperator(sigma=counting_sigma(calls), b=np.zeros(1), N=1)
    problem = ProblemSpec(N=1, lam=1.0, operator=op, hamiltonian=eq13().hamiltonian,
                          q=2.0, f=0.0, C0=1.0)
    rep = comparison_check(problem, Box((0.0,), (1.0,)), 0.1, lambda x: 0.0,
                           lambda x: 0.5, 0.0, 0.25)
    assert rep.ordered
    assert len(calls) == 19  # the interior nodes of 21


def test_nonuniqueness_branches_share_one_grid_operator(monkeypatch):
    built = []
    init = DiscreteOperator.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(DiscreteOperator, "__init__", counting_init)
    rep = nonuniqueness_demo("eq12", Box((0.0,), (2.0,)), 0.1)
    assert len(rep.branches) == 2 and len(built) == 1


# ---------------------------------------------------------------------------
# non-finite data are refused before the first Newton step, by name and node


def nan_at(point, value):
    """The coefficient value(x), with every entry NaN at the node point."""
    return lambda x: np.full_like(value(x), np.nan) if np.allclose(x, point) else value(x)


def signed_problem(sigma=lambda x: np.eye(1), b=lambda x: np.zeros(1), f=lambda x: 0.0, N=1):
    op = DriftDiffusionOperator(sigma=sigma, b=b, N=N)
    return ProblemSpec(N=N, lam=1.0, operator=op, q=2.0, f=f,
                       hamiltonian=SignedScalarHamiltonian(a=1.0, q=2.0))


LINE = Box(center=(0.0,), half_width=(1.0,))


@pytest.mark.parametrize("problem, box, boundary, message", [
    (signed_problem(f=lambda x: float("nan") if np.isclose(x[0], 0.5) else 0.0), LINE, 0.0,
     r"f is not finite at node \[0\.5\]"),
    (signed_problem(), LINE, lambda x: float("nan") if x[0] > 0 else 0.0,
     r"boundary value is not finite at node \[1\.\]"),
    (signed_problem(b=nan_at([-0.5], lambda x: np.zeros(1))), LINE, 0.0,
     r"b is not finite at node \[-0\.5\]"),
    # a NaN sigma in 2-d passed the diagonal-diffusion test: NaN compares false
    (signed_problem(sigma=nan_at([0.5, 0.0], lambda x: np.eye(2)), b=lambda x: np.zeros(2), N=2),
     Box(center=(0.0, 0.0), half_width=(1.0, 1.0)), 0.0,
     r"sigma sigma\^T is not finite at node \[0\.5 0\. \]"),
], ids=["f", "boundary", "b", "sigma_2d"])
def test_solve_refuses_non_finite_data_naming_the_node(problem, box, boundary, message):
    with pytest.raises(ValueError, match=message):
        solve(problem, box, 0.25, boundary)


def test_comparison_check_refuses_non_finite_f_naming_the_node():
    f_high = lambda x: float("nan") if np.isclose(x[0], -0.25) else 1.0
    with pytest.raises(ValueError, match=r"f is not finite at node \[-0\.25\]"):
        comparison_check(signed_problem(), LINE, 0.25, lambda x: 0.0, f_high, 0.0, 0.0)
