import numpy as np
import pytest

from viscompare.hamiltonians import SignedScalarHamiltonian, compute_gamma
from viscompare.operators import (
    DriftDiffusionOperator,
    ExtremalOperator,
    canonical_extremal,
    check_A1_A3,
    check_degenerate_ellipticity,
    check_F1_standard_form,
    check_F3_F4_growth,
    spectral_norm,
)


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
