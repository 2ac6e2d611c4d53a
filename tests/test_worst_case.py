"""The one worst-case rule of the sampled hypothesis checkers.

worst_case picks every checker's worst sample.  A NaN sample, one the
checker could not evaluate, wins: the check fails and names it as the
witness, instead of passing on the samples it could evaluate.
"""

import numpy as np
import pytest

from viscompare.hamiltonians import (
    PowerHamiltonian,
    SignedScalarHamiltonian,
    check_A4,
    check_H1_convexity,
    check_H2_bounds,
    check_H3_homogeneity,
    check_H4_modulus,
    compute_gamma,
    worst_case,
)
from viscompare.operators import (
    DriftDiffusionOperator,
    ExtremalOperator,
    check_A1_A3,
    check_degenerate_ellipticity,
    check_F1_standard_form,
)
from viscompare.systems import MonotoneSystem, SystemComponent, check_M

NAN = float("nan")


def test_worst_case_ties_go_to_the_lowest_index():
    assert worst_case([1.0, 3.0, 2.0, 3.0], 0.0, larger=True) == (3.0, 1)
    assert worst_case([1.0, -3.0, 2.0, -3.0], 0.0, larger=False) == (-3.0, 1)


def test_worst_case_first_nan_wins():
    worst, i = worst_case([5.0, NAN, 9.0, NAN], 0.0, larger=True)
    assert np.isnan(worst) and i == 1
    worst, i = worst_case([-5.0, -9.0, NAN], np.inf, larger=False)
    assert np.isnan(worst) and i == 2


def test_worst_case_nothing_beyond_start_has_no_index():
    assert worst_case([-1.0, 0.0, -0.0], 0.0, larger=True) == (0.0, None)
    assert worst_case([2.0, 1.0], 1.0, larger=False) == (1.0, None)
    assert worst_case([], -np.inf, larger=True) == (-np.inf, None)


def within(radius, value):
    """value(x) for |x| <= radius and NaN beyond, for 1-d x."""
    return lambda x: value(x) if abs(float(x[0])) <= radius else value(x) * NAN


# a power form and an operator that are NaN for |x| > 1; the samples put
# the first x with |x| > 1 at index 3
POWER = PowerHamiltonian(A=within(1.0, lambda x: np.eye(1)), q=2.0)
OPERATOR = DriftDiffusionOperator(sigma=within(1.0, lambda x: np.eye(1)), b=np.zeros(1), N=1)
XS = [np.array([v]) for v in (-0.5, 0.0, 0.5, 2.0, -2.0)]
XI = np.ones(1)


def nan_coupling_system():
    """system2's "mean" coupling, NaN once some |r_k| > 1.5."""
    def component(k):
        return SystemComponent(
            operator=DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1),
            hamiltonian=None, f=0.0,
            coupling=lambda r, k=k: 0.5 * (r[k] - np.mean(r)) if np.abs(r).max() <= 1.5 else NAN)
    return MonotoneSystem(lam=1.0, q=2.0, components=(component(0), component(1)))


def at_x(*coords):
    """Witness check: the witness's first entry is the point coords."""
    return lambda witness: np.array_equal(witness[0], np.array(coords))


# name -> (run the check, predicate on the witness; None for modulus tables)
CASES = {
    "H1": (lambda: check_H1_convexity(POWER, XS, [(XI, -XI)], (0.5,)), at_x(2.0)),
    "H2": (lambda: check_H2_bounds(POWER, 1.0, 1.0, [(x, XI) for x in XS]), at_x(2.0)),
    "H3": (lambda: check_H3_homogeneity(POWER, [(x, XI) for x in XS], (0.5, 2.0)), at_x(2.0)),
    "H4": (lambda: check_H4_modulus(
        POWER, 3.0, [(x, y, XI) for x in XS for y in XS if x[0] != y[0]]), None),
    "A4": (lambda: check_A4(
        SignedScalarHamiltonian(a=within(0.5, lambda x: float(x[0]) ** 2), q=2.0),
        np.array([[0.0]]), r=1.0, C1_candidate=1.0),
        lambda witness: abs(witness[0][0]) > 0.5),
    "A1": (lambda: check_A1_A3(
        ExtremalOperator(sigma0=np.zeros((1, 1)),
                         b0=lambda x: NAN if x[0] == 0.0 else 0.0, N=1),
        compute_gamma(SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0),
                      np.linspace(-1, 1, 21))),
        lambda witness: np.array_equal(witness, [0.0])),
    "degenerate ellipticity": (lambda: check_degenerate_ellipticity(OPERATOR),
                               lambda witness: abs(witness[0][0]) > 1.0),
    "F1": (lambda: check_F1_standard_form(OPERATOR, R=2.0), None),
    "M": (lambda: check_M(nan_coupling_system(), [(np.array([0.5, 0.0]), np.zeros(2)),
                                                   (np.array([2.0, 0.0]), np.zeros(2))]),
          lambda witness: np.array_equal(witness[0], [2.0, 0.0]) and witness[2] == 0),
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_nan_sample_fails_the_check_and_is_its_witness(name):
    run, is_nan_sample = CASES[name]
    rep = run()
    assert not rep.passed
    if is_nan_sample is not None:
        assert np.isnan(rep.worst)
        assert is_nan_sample(rep.witness)
