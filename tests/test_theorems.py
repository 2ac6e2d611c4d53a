"""The theorem map, viscompare.theorems.ROUTES, called as a library.

One case per verdict and one per failure predicate of the table, including
failures that no scenario file can express (NaN coefficients, Hamiltonians
that are not built in, hand-built games and systems).  A failure whose step
returned a CheckReport carries it as PredicateFailure.check.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from test_hamiltonians import Shifted

from viscompare import theorems
from viscompare.hamiltonians import (GameHamiltonian, MinConvexHamiltonian, PowerHamiltonian,
                                     SignedScalarHamiltonian)
from viscompare.operators import DriftDiffusionOperator
from viscompare.problems import (ProblemSpec, eq13, game_problem, hje3, minconvex_problem,
                                 signswitch)
from viscompare.systems import system2

README = Path(__file__).resolve().parent.parent / "README.md"


def custom(sigma=1.0, b=0.0, H=None, f=0.0, C0=None):
    """A 1-d problem with lambda = 1 and q = 2; sigma and b are constants or
    callables of the point."""
    coeff = lambda v, shape: v if callable(v) else np.full(shape, float(v))
    op = DriftDiffusionOperator(sigma=coeff(sigma, (1, 1)), b=coeff(b, (1,)), N=1)
    return ProblemSpec(N=1, lam=1.0, operator=op, hamiltonian=H, q=2.0, f=f, C0=C0)


def power(A):
    return PowerHamiltonian(A=A if callable(A) else np.array([[float(A)]]), q=2.0)


def signed(a):
    return SignedScalarHamiltonian(a=a, q=2.0)


def quartic_dive(x):
    return -float(x[0]) ** 4


def with_components(system, **changes):
    """system with each component's fields replaced by changes[field](k)."""
    comps = tuple(dataclasses.replace(c, **{k: v(i) for k, v in changes.items()})
                  for i, c in enumerate(system.components))
    return dataclasses.replace(system, components=comps)


def game(sigma, tau):
    H = GameHamiltonian(alpha_set=(0, 1), beta_set=(0, 1),
                        sigma=lambda x, a, b: np.array([[sigma]]),
                        tau=lambda x, a, b: np.array([[tau]]))
    return dataclasses.replace(game_problem(), hamiltonian=H)


def min_convex(*coefficients, C0=None):
    H = MinConvexHamiltonian(components=tuple(power(c) for c in coefficients), q=2.0)
    return dataclasses.replace(minconvex_problem(), hamiltonian=H, C0=C0)


def linear(x):
    return float(x[0])


def nan_beyond(edge):
    return lambda x: float(x[0]) if float(x[0]) <= edge else float("nan")


VERDICTS = [
    ("system", system2("mean", c=0.5), "Theorem 5.2 applies"),
    ("no_h_strict", custom(), "Proposition 3.3 applies"),
    # b0 = |x| is in SG_1, not in S_1
    ("no_h_relaxed", custom(b=lambda x: np.array([float(x[0])])),
     "Proposition 3.4 applies (lambda large)"),
    ("game", game_problem(), "Corollary 4.4 applies"),
    ("min_convex", minconvex_problem(), "Theorem 4.2 applies"),
    ("sign_split", signswitch(1.0), "Theorem 4.1 applies"),
    # a = x^2 + 1 is signed but never negative: the convex route
    ("signed_positive", custom(H=signed(lambda x: float(x[0]) ** 2 + 1.0)),
     "Theorem 3.1 applies"),
    ("power_strict", eq13(1.0), "Theorem 3.1 applies"),
    ("power_relaxed", hje3(1.0, t=1.0), "Theorem 3.2 applies (lambda >= lambda0)"),
]


@pytest.mark.parametrize("target,verdict", [c[1:] for c in VERDICTS], ids=[c[0] for c in VERDICTS])
def test_each_route_reaches_its_verdict(target, verdict):
    assert theorems.check_hypotheses(target)["verdict"] == verdict


# (id, target, FAILED predicate, name of the failing CheckReport or None)
FAILURES = [
    ("M", system2("minus2lam"), "(M) monotone coupling", "M monotone coupling"),
    # r_k^3 is increasing in r_k, so (M) holds, but it is not 1-homogeneous
    ("F2prime", with_components(system2("none"), coupling=lambda k: lambda r, k=k: float(r[k]) ** 3),
     "(F2') homogeneity", "F2' homogeneity"),
    ("component_growth", with_components(
        system2("none"), operator=lambda k: DriftDiffusionOperator(
            sigma=np.eye(1), b=lambda x: np.array([float(x[0])]), N=1)),
     "component extremal data not in S_1 (strict growth)", None),
    # component 0 alone fails with f not in SG_{q'}^+
    ("component_f", system2("mean", c=0.5, f_list=[quartic_dive, 0.0]),
     "component f not in S_{q'}^+ (strict growth)", None),
    ("ellipticity", custom(sigma=lambda x: np.array([[float("nan")]]), H=power(1.0)),
     "degenerate ellipticity", "degenerate ellipticity"),
    ("H3", custom(H=Shifted(0.5)), "(H3) positive homogeneity", "H3 homogeneity"),
    ("H2prime", game(1.0, 2.0), "(H2') game positivity/boundedness", "H2' game positivity"),
    ("game_growth", game_problem().with_f(quartic_dive),
     "growth hypotheses for the game route (coefficients S_1, f in S_2^+)", None),
    # a component with A = -1 makes the common delta negative
    ("components_delta", min_convex(1.0, -1.0),
     "per-component (H1)-(H2) with common constants", None),
    ("components_C0", min_convex(1.0, 4.0, C0=2.0),
     "per-component (H1)-(H2) with common constants", "H2 bounds"),
    ("min_convex_growth", minconvex_problem().with_f(quartic_dive),
     "growth hypotheses for the min-convex route", None),
    # a(x) = x up to 2.5 and NaN beyond, on the probe [-3, 3]
    ("non_finite_a", custom(H=signed(nan_beyond(2.5))),
     "non-finite a(x) on the sign-split probe", None),
    # a(x) = x - 0.05 changes sign between the probe points 0.04 and 0.06,
    # so Gamma holds no probe point
    ("gamma_between_probe_points", custom(H=signed(lambda x: float(x[0]) - 0.05)),
     "(A1) Gamma missed: a(x) changes sign between probe points", None),
    ("A1", custom(H=signed(linear)), "(A1) extremal data vanishing on Gamma",
     "A1/A3 Gamma degeneracy + local Lipschitz"),
    ("A4", custom(sigma=0.0, H=signed(linear)), "(A4) Hamiltonian degeneracy on Gamma",
     "A4 degeneracy on Gamma"),
    ("sign_split_growth", custom(sigma=0.0, H=signed(lambda x: float(x[0]) ** 3), f=quartic_dive),
     "growth hypotheses for the sign-split route", None),
    ("H1", custom(H=power(-1.0)), "(H1) convexity in the gradient", "H1 convexity"),
    ("H2", custom(H=power(lambda x: np.array([[float(x[0]) ** 2]]))),
     "(H2) strict positivity/boundedness", None),
    ("H2_C0", custom(H=power(2.0), C0=1.0), "(H2) strict positivity/boundedness", "H2 bounds"),
    # sigma = x^2 grows faster than order 1 while f = 0 is in every class
    ("relaxed_coefficients", custom(sigma=lambda x: np.array([[float(x[0]) ** 2]]), H=power(1.0)),
     "|sigma0| or b0 not estimated in the order-1 bounded class SG_1 on the window", None),
    ("relaxed_f", eq13(1.0, f=quartic_dive), "f not estimated in SG_{q'}^+ on the window", None),
    ("no_h_relaxed_coefficients", custom(sigma=lambda x: np.array([[float(x[0]) ** 2]])),
     "|sigma0| or b0 not estimated in the order-1 bounded class SG_1 on the window", None),
    ("no_h_relaxed_f", custom(f=quartic_dive), "f not estimated in SG_{q'}^+ on the window", None),
]


@pytest.mark.parametrize("target,predicate,check", [c[1:] for c in FAILURES],
                         ids=[c[0] for c in FAILURES])
def test_each_failure_predicate_names_itself(target, predicate, check):
    with pytest.raises(theorems.PredicateFailure) as exc:
        theorems.check_hypotheses(target)
    assert exc.value.predicate == predicate
    if check is None:
        assert exc.value.check is None
    else:
        assert exc.value.check.name == check and not exc.value.check.passed


def test_a_failed_prefix_stops_before_the_sign_split_probe():
    def a(x):
        raise AssertionError("a(x) read before the common checks passed")

    with pytest.raises(theorems.PredicateFailure) as exc:
        theorems.check_hypotheses(custom(sigma=lambda x: np.array([[float("nan")]]), H=signed(a)))
    assert exc.value.predicate == "degenerate ellipticity"


def table_predicates():
    """Every FAILED predicate written in the prefix and in ROUTES."""
    steps = theorems.PREFIX + theorems.H_PREFIX + sum((r.steps for r in theorems.ROUTES), ())
    growth = {r.growth_failed for r in theorems.ROUTES}
    return ({failed for _, _, failed in steps} | growth) - {None}


def test_the_cases_cover_every_verdict_and_predicate_of_the_table():
    verdicts = {v for route in theorems.ROUTES for v in route.verdicts}
    assert verdicts == {c[2] for c in VERDICTS}
    assert table_predicates() <= {c[2] for c in FAILURES}


def test_readme_theorem_map_names_every_verdict():
    text = README.read_text()
    section = text[text.index("## Theorem map"):]
    section = section[:section.index("\n## ", 1)]
    for route in theorems.ROUTES:
        for verdict in route.verdicts:
            assert f"`{verdict}`" in section, verdict
