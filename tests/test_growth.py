import numpy as np
import pytest

from viscompare.growth import (
    DEFAULT_RADII,
    EvaluationError,
    GrowthExponent,
    bracket,
    bracket_power_derivatives,
    classify_growth,
    conjugate,
)


def fd_bracket_power(x, q_prime, step=1e-5):
    """Independent oracle: central differences of <x>^q' in 1-d."""
    f = lambda t: (1.0 + t * t) ** (0.5 * q_prime)
    grad = (f(x + step) - f(x - step)) / (2 * step)
    hess = (f(x + step) - 2 * f(x) + f(x - step)) / step**2
    return grad, hess


def test_bracket_values():
    assert bracket(0.0) == 1.0
    assert bracket(np.zeros(3)) == 1.0
    assert bracket(np.sqrt(3.0)) == pytest.approx(2.0, abs=1e-14)
    assert bracket(np.array([1.0, 1.0, 1.0])) == pytest.approx(2.0, abs=1e-14)


def test_bracket_dominates_norm():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-20, 20, rng.integers(1, 4))
        assert bracket(x) >= max(1.0, np.linalg.norm(x))


def test_bracket_power_derivatives_quadratic_exact():
    for x in (np.array([0.3]), np.array([1.0, -2.0])):
        grad, hess = bracket_power_derivatives(x, 2.0)
        assert np.allclose(hess, 2.0 * np.eye(x.size))
        assert np.allclose(grad, 2.0 * x)


def test_bracket_power_derivatives_origin():
    for qp in (1.5, 2.0, 3.0):
        grad, hess = bracket_power_derivatives(np.zeros(2), qp)
        assert np.allclose(grad, 0.0)
        assert np.allclose(hess, qp * np.eye(2))


def test_bracket_power_derivatives_cubic_point():
    # oracle values at q'=3, x=1: 3*sqrt(2) and 9/sqrt(2)
    grad, hess = bracket_power_derivatives(np.array([1.0]), 3.0)
    fd_grad, fd_hess = fd_bracket_power(1.0, 3.0)
    assert grad[0] == pytest.approx(fd_grad, rel=1e-6)
    assert hess[0, 0] == pytest.approx(fd_hess, rel=1e-5)
    assert grad[0] == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)
    assert hess[0, 0] == pytest.approx(9.0 / np.sqrt(2.0), rel=1e-12)


def test_bracket_power_derivatives_match_fd():
    rng = np.random.default_rng(1)
    for qp in (1.5, 2.0, 3.0):
        for dim in (1, 2):
            for _ in range(100):
                x = rng.uniform(-5, 5, dim)
                grad, hess = bracket_power_derivatives(x, qp)
                f = lambda p: bracket(p) ** qp
                step = 1e-5
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = step
                    fd_g = (f(x + e) - f(x - e)) / (2 * step)
                    assert grad[i] == pytest.approx(fd_g, rel=1e-6, abs=1e-8)
                # second differences need a larger step against rounding
                step = 1e-4
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = step
                    fd_h = (f(x + e) - 2 * f(x) + f(x - e)) / step**2
                    assert hess[i, i] == pytest.approx(fd_h, rel=1e-5, abs=1e-5)


def test_bracket_power_requires_superlinear_conjugate():
    with pytest.raises(ValueError):
        bracket_power_derivatives(np.array([1.0]), 1.0)


def test_conjugate_values():
    assert conjugate(2.0) == pytest.approx(2.0)
    assert conjugate(3.0) == pytest.approx(1.5)
    assert conjugate(4.0 / 3.0) == pytest.approx(4.0)


def test_conjugate_involution():
    for q in (1.1, 1.5, 2.0, 3.0, 10.0):
        assert conjugate(conjugate(q)) == pytest.approx(q, abs=1e-12)


def test_conjugate_domain_error():
    for q in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            conjugate(q)


def test_growth_exponent_validates():
    with pytest.raises(ValueError):
        GrowthExponent(0.0)
    assert float(GrowthExponent(2.0)) == 2.0


def test_classify_zero_function():
    rep = classify_growth(lambda x: 0.0, 2.0, dim=1)
    assert rep.in_S and rep.in_SG
    assert rep.liminf_plus == 0.0 and rep.liminf_minus == 0.0


def test_classify_eq12_second_solution():
    lam = 1.0
    u2 = lambda x: -(lam / 4.0) * float(x[0]) ** 2 - 0.5
    rep = classify_growth(u2, 2.0, dim=1)
    assert rep.in_S_minus and not rep.in_S_plus
    assert rep.in_SG_plus and rep.in_SG_minus
    assert rep.liminf_plus == pytest.approx(-lam / 4.0, abs=1e-3)


def test_classify_sublinear_power():
    # |x|^{3/2} relative to r=2 decays like |x|^{-1/2}: -0.01 at radius 1e4,
    # -0.0316 at 1e3; the conservative two-shell surrogate needs tol 0.04
    h = lambda x: abs(float(x[0])) ** 1.5
    rep = classify_growth(h, 2.0, tol=0.04, dim=1)
    assert rep.in_S
    assert abs(rep.liminf_minus) <= 0.04
    assert rep.shell_infima_minus[-1] == pytest.approx(-0.01, abs=1e-12)


def test_classify_monotone_in_minus_direction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = rng.uniform(0.0, 2.0, 3)
        h1 = lambda x, c=c: c[0] * float(x[0]) ** 2 + c[1]
        h2 = lambda x, c=c, extra=rng.uniform(0.0, 3.0): (
            c[0] * float(x[0]) ** 2 + c[1] + extra * (1.0 + np.sin(float(x[0])) ** 2)
        )
        r1 = classify_growth(h1, 2.0, dim=1)
        r2 = classify_growth(h2, 2.0, dim=1)
        # h1 <= h2 pointwise, so -h1/|x|^r >= -h2/|x|^r shellwise
        assert r1.liminf_minus >= r2.liminf_minus - 1e-12


def test_report_consistency_invariant():
    rng = np.random.default_rng(3)
    for _ in range(30):
        coeffs = rng.uniform(-2, 2, 3)
        h = lambda x, c=coeffs: c[0] * float(x[0]) ** 2 + c[1] * float(x[0]) + c[2]
        rep = classify_growth(h, 2.0, dim=1)
        if rep.in_S_plus:
            assert rep.in_SG_plus
            assert rep.liminf_plus >= 0.0
        if rep.in_S_minus:
            assert rep.in_SG_minus
        assert rep.in_S == (rep.in_S_plus and rep.in_S_minus)


def test_classify_diverging_down_not_SG():
    h = lambda x: -float(x[0]) ** 3
    rep = classify_growth(h, 2.0, dim=1)
    assert not rep.in_SG_plus and not rep.in_S_plus


def test_classify_radii_validation():
    with pytest.raises(ValueError):
        classify_growth(lambda x: 0.0, 2.0, radii=(10.0, 5.0))
    with pytest.raises(ValueError):
        classify_growth(lambda x: 0.0, 2.0, radii=(-1.0, 5.0))


def test_evaluator_failure_names_point():
    def bad(x):
        if float(x[0]) > 50:
            raise RuntimeError("boom")
        return 0.0

    with pytest.raises(EvaluationError) as err:
        classify_growth(bad, 2.0, dim=1)
    assert err.value.point is not None
    assert "sample point" in str(err.value)


def test_default_radii():
    rep = classify_growth(lambda x: 0.0, 2.0, dim=1)
    assert rep.radii_used == DEFAULT_RADII


def test_directions_dims_2_and_3():
    rep2 = classify_growth(lambda x: float(x[0]) ** 2 + float(x[1]) ** 2, 2.0, dim=2)
    assert rep2.in_S_plus and not rep2.in_S_minus
    rep3 = classify_growth(lambda x: float(np.dot(x, x)), 2.0, dim=3,
                           radii=(10.0, 100.0))
    assert rep3.in_S_plus


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_on_one_shell_direction_fails_closed(dim):
    # NaN on the first shell direction (the positive x_0 axis), 1 elsewhere:
    # every shell infimum is NaN, so no class is claimed
    h = lambda x: float("nan") if x[0] > 0 and not np.any(x[1:]) else 1.0
    rep = classify_growth(h, 2.0, dim=dim)
    assert not rep.in_S_plus and not rep.in_SG_plus
    assert np.isnan(rep.liminf_plus)
