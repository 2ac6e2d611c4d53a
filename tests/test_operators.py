import dataclasses

import numpy as np
import operator_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscompare import operators
from viscompare.fields import Polynomial
from viscompare.hamiltonians import SignedScalarHamiltonian, compute_gamma
from viscompare.operators import (
    ELLIPTICITY_SAMPLES,
    F1_PAIRS,
    DriftDiffusionOperator,
    ExtremalOperator,
    canonical_extremal,
    check_A1_A3,
    check_degenerate_ellipticity,
    check_F1_standard_form,
    check_F3_F4_growth,
    spectral_norm,
)
from viscompare.problems import eq13
from viscompare.theorems import check_hypotheses


def test_eval_F_trace():
    op = DriftDiffusionOperator(sigma=np.eye(2), b=np.zeros(2), N=2)
    assert op(np.zeros(2), np.zeros(2), np.eye(2)) == pytest.approx(-2.0)


def test_eval_F_drift_only():
    op = DriftDiffusionOperator(sigma=np.zeros((2, 2)), b=np.array([1.0, 0.0]), N=2)
    assert op(np.zeros(2), np.array([3.0, 0.0]), np.zeros((2, 2))) == pytest.approx(3.0)


def test_eval_F_variable_sigma():
    op = DriftDiffusionOperator(
        sigma=lambda x: np.diag([float(x[0]), 0.0]), b=np.zeros(2), N=2
    )
    assert op(np.array([2.0, 5.0]), np.zeros(2), np.eye(2)) == pytest.approx(-4.0)


def test_eval_F_dimension_mismatch():
    op = DriftDiffusionOperator(sigma=np.eye(2), b=np.zeros(2), N=2)
    with pytest.raises(ValueError):
        op(np.zeros(2), np.zeros(2), np.eye(3))


def test_eval_P_values():
    ext = ExtremalOperator(sigma0=np.eye(2), b0=0.0, N=2)
    assert ext.P(np.zeros(2), np.diag([1.0, -1.0])) == pytest.approx(0.0)
    ext0 = ExtremalOperator(sigma0=np.zeros((2, 2)), b0=0.0, N=2)
    assert ext0.P(np.zeros(2), np.diag([7.0, -3.0])) == pytest.approx(0.0)
    ext2 = ExtremalOperator(sigma0=np.diag([1.0, 2.0]), b0=0.0, N=2)
    assert ext2.P(np.zeros(2), np.eye(2)) == pytest.approx(-5.0)


def test_eval_P_monotone_in_hessian():
    ext = ExtremalOperator(sigma0=np.diag([1.0, 0.5]), b0=0.0, N=2)
    rng = np.random.default_rng(0)
    for _ in range(500):
        Y = rng.standard_normal((2, 2))
        Y = 0.5 * (Y + Y.T)
        G = rng.standard_normal((2, 2))
        inc = G @ G.T
        assert ext.P(np.zeros(2), Y + inc) <= ext.P(np.zeros(2), Y) + 1e-9


def test_degenerate_ellipticity_equality_and_identity_drop():
    op = DriftDiffusionOperator(sigma=np.eye(2), b=np.zeros(2), N=2)
    x, xi = np.zeros(2), np.zeros(2)
    Y = np.diag([1.0, -2.0])
    assert op(x, xi, Y) == op(x, xi, Y)
    assert op(x, xi, Y + np.eye(2)) == pytest.approx(op(x, xi, Y) - 2.0)


def test_degenerate_ellipticity_random():
    op = DriftDiffusionOperator(
        sigma=lambda x: np.diag([1.0 + float(x[0]) ** 2, 0.5]),
        b=lambda x: np.array([float(x[1]), -float(x[0])]),
        N=2,
    )
    assert check_degenerate_ellipticity(op).passed


def test_F2_homogeneity_exact():
    op = DriftDiffusionOperator(
        sigma=lambda x: np.array([[1.0 + abs(float(x[0]))]]),
        b=lambda x: np.array([float(x[0])]),
        N=1,
    )
    rng = np.random.default_rng(1)
    for theta in (0.0, 0.5, 2.0, 10.0):
        for _ in range(20):
            x = rng.normal(size=1)
            xi = rng.normal(size=1)
            X = rng.normal(size=(1, 1))
            assert op(x, theta * xi, theta * X) == pytest.approx(
                theta * op(x, xi, X), rel=1e-14, abs=1e-14
            )


def test_F3_canonical_equality():
    op = DriftDiffusionOperator(
        sigma=lambda x: np.array([[1.0 + float(x[0]) ** 2]]), b=np.zeros(1), N=1
    )
    ext = canonical_extremal(op)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=1)
        xi = rng.normal(size=1)
        X = rng.normal(size=(1, 1))
        Y = rng.normal(size=(1, 1))
        lhs = op(x, xi, X) - op(x, xi, Y)
        rhs = -np.trace(ext.sigma0_at(x) @ ext.sigma0_at(x).T @ (X - Y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_F4_drift_bound_equality_along_b():
    op = DriftDiffusionOperator(sigma=np.zeros((2, 2)), b=np.array([2.0, 1.0]), N=2)
    ext = canonical_extremal(op)
    x = np.zeros(2)
    b = np.array([2.0, 1.0])
    xi = np.array([1.0, 1.0])
    eta = xi + 0.7 * b  # difference parallel to b: equality
    lhs = abs(op(x, xi, np.zeros((2, 2))) - op(x, eta, np.zeros((2, 2))))
    assert lhs == pytest.approx(ext.b0_at(x) * np.linalg.norm(xi - eta), rel=1e-12)
    # generic direction: inequality
    eta2 = xi + np.array([0.5, -1.0])
    lhs2 = abs(op(x, xi, np.zeros((2, 2))) - op(x, eta2, np.zeros((2, 2))))
    assert lhs2 <= ext.b0_at(x) * np.linalg.norm(xi - eta2) + 1e-12


def test_growth_constants_strict():
    ext = ExtremalOperator(sigma0=np.eye(1), b0=0.3, N=1)
    rep = check_F3_F4_growth(ext)
    assert rep.strict and rep.relaxed
    assert rep.sigma0_report.in_S and rep.b0_report.in_S


def test_growth_hje3_drift_relaxed_only():
    # b0(x) = |t| |x| with t = 1: bounded relative linear growth, not vanishing
    ext = ExtremalOperator(
        sigma0=np.eye(1), b0=lambda x: abs(float(x[0])), N=1
    )
    rep = check_F3_F4_growth(ext)
    assert not rep.strict
    assert rep.relaxed
    assert rep.b0_report.in_SG and not rep.b0_report.in_S


def test_growth_ex2_sigma_relaxed_only():
    ext = ExtremalOperator(
        sigma0=lambda x: np.array([[np.sqrt(1.0 + float(x[0]) ** 2)]]), b0=0.0, N=1
    )
    rep = check_F3_F4_growth(ext)
    assert not rep.strict and rep.relaxed


def test_A1_A3_zero_data_passes():
    ext = ExtremalOperator(sigma0=np.zeros((1, 1)), b0=0.0, N=1)
    ham = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    gamma = compute_gamma(ham, np.linspace(-1, 1, 21))
    assert check_A1_A3(ext, gamma).passed


def test_A1_A3_vanishing_data_passes_at_origin():
    ext = ExtremalOperator(
        sigma0=lambda x: np.array([[float(x[0]) ** 2]]),
        b0=lambda x: abs(float(x[0])),
        N=1,
    )
    ham = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    gamma = compute_gamma(ham, np.linspace(-1, 1, 21))
    rep = check_A1_A3(ext, gamma)
    assert rep.passed
    assert rep.extra["lipschitz_b0"] <= 1.0 + 1e-9


def test_A1_A3_nonvanishing_fails_with_witness():
    ext = ExtremalOperator(sigma0=np.eye(1), b0=0.0, N=1)
    ham = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    gamma = compute_gamma(ham, np.linspace(-1, 1, 21))
    rep = check_A1_A3(ext, gamma)
    assert not rep.passed
    assert rep.witness is not None


def test_F1_constant_coefficients_zero_table():
    op = DriftDiffusionOperator(sigma=np.eye(1), b=np.array([0.7]), N=1)
    rep = check_F1_standard_form(op, R=1.0)
    assert rep.passed
    vals = [v for v in rep.values if not np.isnan(v)]
    assert max(vals) == pytest.approx(0.0, abs=1e-12)


def test_F1_linear_sigma_bounded():
    op = DriftDiffusionOperator(sigma=lambda x: np.array([[float(x[0])]]), b=np.zeros(1), N=1)
    rep = check_F1_standard_form(op, R=1.0)
    assert rep.passed
    assert rep.extra["lipschitz_sigma"] == pytest.approx(1.0, rel=1e-9)


def test_F1_drift_pairing_identity():
    # b(x) = x pairs with p = (x - y)/eps: <b(x)-b(y), p> = |x-y|^2/eps exactly
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        eps = float(rng.uniform(0.01, 1.0))
        p = (x - y) / eps
        assert np.dot(x - y, p) == pytest.approx(np.dot(x - y, x - y) / eps, rel=1e-12)


def test_spectral_norm_symmetric():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert spectral_norm(M) == pytest.approx(3.0)


def test_F2_generic_evaluator_check():
    # general (non-model-form) operators get the homogeneity sampling check
    from viscompare.operators import check_F2_homogeneity

    rng = np.random.default_rng(4)
    good = lambda x, xi, X: -float(np.trace(X)) + float(np.linalg.norm(xi))
    samples = [(rng.normal(size=1), rng.normal(size=1), rng.normal(size=(1, 1)))
               for _ in range(20)]
    assert check_F2_homogeneity(good, samples, (0.0, 0.5, 2.0, 10.0)).passed
    affine = lambda x, xi, X: -float(np.trace(X)) + 1.0
    rep = check_F2_homogeneity(affine, samples, (2.0,))
    assert not rep.passed


# ---------------------------------------------------------------------------
# the drawn-once, evaluated-once checkers against the per-sample oracle
# (tests/operator_oracle.py)


def bits(obj):
    """A report's content as nested tuples, every number by its float bytes."""
    if dataclasses.is_dataclass(obj):
        return bits([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if isinstance(obj, dict):
        return tuple((k, bits(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (tuple, list)):
        return tuple(bits(v) for v in obj)
    if obj is None or isinstance(obj, str):
        return obj
    v = np.asarray(obj, dtype=float)
    return np.where(np.isnan(v), np.nan, v).tobytes()  # one NaN: its sign bit is not content


def polynomial_coefficients(N, sigma_tables, b_tables, nan_from):
    """sigma (N x N) and b (N) with polynomial entries; with nan_from set,
    sigma[0][0] and b[0] are NaN where x[0] > nan_from."""
    polys = [Polynomial.from_table({k[:N]: c for k, c in table.items()}, N)
             for table in sigma_tables[:N * N] + b_tables[:N]]

    def nan_beyond(value, x):
        return float("nan") if nan_from is not None and x[0] > nan_from else value

    def sigma(x):
        S = np.array([[p(x) for p in polys[i * N:(i + 1) * N]] for i in range(N)])
        S[0, 0] = nan_beyond(S[0, 0], x)
        return S

    def b(x):
        v = np.array([p(x) for p in polys[N * N:]])
        v[0] = nan_beyond(v[0], x)
        return v

    return sigma, b


monomial_table = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                 st.floats(-2.0, 2.0), max_size=3)


@pytest.mark.parametrize("N", [1, 2])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(sigma_tables=st.lists(monomial_table, min_size=4, max_size=4),
       b_tables=st.lists(monomial_table, min_size=2, max_size=2),
       nan_from=st.none() | st.floats(-3.0, 3.0), R=st.sampled_from([0.5, 2.0]))
def test_checkers_equal_the_per_sample_oracle_bit_for_bit(N, sigma_tables, b_tables, nan_from, R):
    """Both checkers read the cached draws and evaluate sigma and b once per
    point; their reports equal the per-sample loops', NaN samples included."""
    sigma, b = polynomial_coefficients(N, sigma_tables, b_tables, nan_from)
    op = DriftDiffusionOperator(sigma=sigma, b=b, N=N)
    assert bits(check_degenerate_ellipticity(op)) == bits(oracle.check_degenerate_ellipticity(op))
    assert bits(check_F1_standard_form(op, R)) == bits(oracle.check_F1_standard_form(op, R))


def counting(value, calls):
    def counted(x):
        calls.append(1)
        return value(x)
    return counted


def test_checkers_evaluate_sigma_and_b_once_per_sample_point():
    # the oracle evaluates each twice per ellipticity sample (1,000 times)
    # and F1 four times per kept pair
    sigma_calls, b_calls = [], []
    op = DriftDiffusionOperator(sigma=counting(lambda x: np.array([[1.0 + x[0]]]), sigma_calls),
                                b=counting(lambda x: np.array([x[0]]), b_calls), N=1)
    check_degenerate_ellipticity(op)
    assert len(sigma_calls) == len(b_calls) == ELLIPTICITY_SAMPLES == 500
    sigma_calls.clear(), b_calls.clear()
    check_F1_standard_form(op, R=2.0)
    assert len(sigma_calls) == len(b_calls) <= 2 * F1_PAIRS == 480


def test_admissible_blocks_are_drawn_once_per_dimension_and_radius(monkeypatch):
    calls = []
    draw = operators._admissible_blocks
    monkeypatch.setattr(operators, "_admissible_blocks",
                        lambda rng, N, eps: calls.append(N) or draw(rng, N, eps))
    operators._f1_draw.cache_clear()
    check_hypotheses(eq13())
    kept = len(calls)
    assert 0 < kept <= F1_PAIRS
    check_hypotheses(eq13())
    check_hypotheses(eq13(lam=2.0))
    assert len(calls) == kept  # N = 1, R = 2.0: one draw for all three
    check_hypotheses(eq13(N=2))
    assert len(calls) > kept and set(calls[kept:]) == {2}
    check_F1_standard_form(DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1), R=0.5)
    n = len(calls)
    check_F1_standard_form(DriftDiffusionOperator(sigma=np.eye(1), b=np.ones(1), N=1), R=0.5)
    assert len(calls) == n


def test_cached_draws_are_read_only():
    check_F1_standard_form(DriftDiffusionOperator(sigma=np.eye(2), b=np.zeros(2), N=2), R=2.0)
    for stack in operators._ellipticity_draw(2) + operators._f1_draw(2, 2.0):
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0
