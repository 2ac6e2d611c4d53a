"""Theorem routing: which of the paper's results a problem or a system meets.

ROUTES is the README's theorem map.  A scalar problem runs the steps of
PREFIX (and of H_PREFIX when it has a Hamiltonian); then the first row
whose shape test matches is the route.  Each step (key, run, failed)
records whether its check passed in `checks` under key (None: not
recorded); a failed check stops the route with the FAILED line `failed`
(None: recorded only).  The growth rule of operators.growth_hypotheses then
picks the verdict: strict, then relaxed for a row with two verdicts;
strict, else growth_failed, for a row with one.  A system has no growth
report.  Steps look checkers up in this module's globals when they run, so
a wrapper installed over a checker's name sees the call.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .hamiltonians import (CheckReport, GameHamiltonian, MinConvexHamiltonian,
                           SignedScalarHamiltonian, check_A4, check_H1_convexity, check_H2_bounds,
                           check_H2prime, check_H3_homogeneity, check_H4_modulus, compute_gamma,
                           estimate_C0, estimate_delta)
from .operators import (check_A1_A3, check_degenerate_ellipticity, check_F1_standard_form,
                        growth_hypotheses)
from .systems import MonotoneSystem, check_F2prime, check_M

SYSTEM_SEED = 7                  # one generator draws the (M), then the (F2') samples
THETAS = (0.0, 0.5, 2.0)         # homogeneity factors of (H3) and (F2')
CONVEXITY_T = (0.25, 0.5, 0.75)  # convex-combination weights of (H1)


class PredicateFailure(Exception):
    """A failed predicate: the FAILED line, its payload, and the failing
    CheckReport when the failing step returned one (else None)."""

    def __init__(self, predicate: str, report: dict | None = None,
                 check: CheckReport | None = None):
        self.predicate = predicate
        self.report = report or {}
        self.check = check
        super().__init__(predicate)


class Route(NamedTuple):
    """One row of the theorem map; a step's run(case) returns a CheckReport,
    a ModulusReport or a bool.  growth_failed is the FAILED line of a scalar
    row with one verdict when the strict growth rule fails."""

    shape: Callable
    steps: tuple
    verdicts: tuple
    growth_failed: str | None


class _Case:
    """What the shape tests and steps of one check_hypotheses call read."""

    def __init__(self, target, radii):
        self.target, self.radii, self.growth = target, radii, None
        if isinstance(target, MonotoneSystem):
            self.rng = np.random.default_rng(SYSTEM_SEED)
            return
        self.ham, N = target.hamiltonian, target.N
        self.xs = xs = [np.full(N, v) for v in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        xis = [np.full(N, v) for v in (1.0, -1.0, 0.3)]
        if N == 2:
            xis.append(np.array([1.0, -2.0]))
        self.xi_pairs = [(xis[0], xis[1]), (xis[0], 2.0 * xis[2]), (xis[1], -3.0 * xis[2])]
        self.samples = [(x, xi) for x in xs for xi in xis]
        self.pair_samples = [(x, y, xi) for x in xs for y in xs for xi in xis
                             if not np.array_equal(x, y)]
        self.probe = np.linspace(-3.0, 3.0, 301).reshape(-1, 1) if N == 1 else np.array(xs)
        self.growth = growth_hypotheses(target, radii)

    @cached_property
    def gamma(self):
        """The sign split of a signed H on the probe, made when first read."""
        return compute_gamma(self.ham, self.probe)

    @cached_property
    def component_growth(self):
        """The growth hypotheses of each component of a system."""
        return [growth_hypotheses(self.target.scalar_problem(k), self.radii)
                for k in range(self.target.m)]

    @property
    def covers(self) -> bool:
        """Whether a(x) is finite on the probe."""
        return self.gamma.covers(len(self.probe))

    def C0(self) -> float:
        """The problem's C0, else its window estimate."""
        return self.target.C0 if self.target.C0 is not None else estimate_C0(self.ham, self.xs)


def _f2prime(c):
    N, m, rng = c.target.N, c.target.m, c.rng
    return check_F2prime(c.target, [(np.zeros(N), rng.uniform(-1, 1, m), rng.uniform(-1, 1, N),
                                     np.eye(N)) for _ in range(20)], thetas=THETAS)


def _h2prime(c):
    H = c.ham
    delta = lambda x: 0.99 * min(max(float(np.linalg.eigvalsh(H.S(x, a, b) - H.T(x, a, b)).min())
                                     for a in H.alpha_set) for b in H.beta_set)
    return check_H2prime(H, delta, c.C0(), c.xs)


def _components_h1_h2(c):
    """(H1) and (H2) of every component with one delta and one C0: the first
    failing report, else whether delta > 0 (check_H2_bounds requires it)."""
    components = c.ham.components
    delta, C0 = min(estimate_delta(H, c.xs) for H in components), c.C0()
    if not delta > 0:
        return False
    for H in components:
        rep = check_H1_convexity(H, c.xs, c.xi_pairs, CONVEXITY_T)
        rep = check_H2_bounds(H, lambda _x: delta, C0, c.samples) if rep.passed else rep
        if not rep.passed:
            return rep
    return True


def _h2(c):
    delta, C0 = estimate_delta(c.ham, c.xs), c.C0()
    return delta > 0 and check_H2_bounds(c.ham, lambda _x: delta, C0, c.samples)


PREFIX = (
    ("degenerate_ellipticity", lambda c: check_degenerate_ellipticity(c.target.operator),
     "degenerate ellipticity"),
    ("F1_consistent", lambda c: check_F1_standard_form(c.target.operator, R=2.0), None),
)
H_PREFIX = (
    ("H3_homogeneity", lambda c: check_H3_homogeneity(c.ham, c.samples, thetas=THETAS),
     "(H3) positive homogeneity"),
    ("H4_consistent", lambda c: check_H4_modulus(c.ham, R=3.0, pair_samples=c.pair_samples), None),
)
ROUTES = (
    Route(lambda c: isinstance(c.target, MonotoneSystem), (
        ("M", lambda c: check_M(c.target, [(c.rng.uniform(-2, 2, c.target.m),
                                            c.rng.uniform(-2, 2, c.target.m)) for _ in range(400)]),
         "(M) monotone coupling"),
        ("F2prime", _f2prime, "(F2') homogeneity"),
        ("component_growth_strict", lambda c: all(g.coeffs.strict for g in c.component_growth),
         "component extremal data not in S_1 (strict growth)"),
        (None, lambda c: all(g.f.in_S_plus for g in c.component_growth),
         "component f not in S_{q'}^+ (strict growth)"),
    ), ("Theorem 5.2 applies",), None),
    Route(lambda c: c.ham is None, (),
          ("Proposition 3.3 applies", "Proposition 3.4 applies (lambda large)"), None),
    Route(lambda c: isinstance(c.ham, GameHamiltonian),
          (("H2prime", _h2prime, "(H2') game positivity/boundedness"),), ("Corollary 4.4 applies",),
          "growth hypotheses for the game route (coefficients S_1, f in S_2^+)"),
    Route(lambda c: isinstance(c.ham, MinConvexHamiltonian),
          (("components_H1_H2_common_constants", _components_h1_h2,
            "per-component (H1)-(H2) with common constants"),),
          ("Theorem 4.2 applies",), "growth hypotheses for the min-convex route"),
    # a signed H with a(x) < 0 somewhere on the probe, or not finite there
    Route(lambda c: isinstance(c.ham, SignedScalarHamiltonian)
          and (len(c.gamma.omega_minus) > 0 or not c.covers), (
        (None, lambda c: c.covers, "non-finite a(x) on the sign-split probe"),
        # neighbouring probe points with strictly opposite signs: Gamma lies
        # between them, unsampled, and (A1) would pass vacuously
        (None, lambda c: not (c.gamma.sign[:-1] * c.gamma.sign[1:] < 0).any(),
         "(A1) Gamma missed: a(x) changes sign between probe points"),
        ("A1_A3", lambda c: check_A1_A3(c.target.extremal, c.gamma, window_radius=3.0),
         "(A1) extremal data vanishing on Gamma"),
        ("A4", lambda c: check_A4(c.ham, c.gamma.gamma_points, r=1.0, C1_candidate=10.0),
         "(A4) Hamiltonian degeneracy on Gamma"),
    ), ("Theorem 4.1 applies",), "growth hypotheses for the sign-split route"),
    Route(lambda c: True, (
        ("H1_convexity", lambda c: check_H1_convexity(c.ham, c.xs, c.xi_pairs, CONVEXITY_T),
         "(H1) convexity in the gradient"),
        ("H2_bounds", _h2, "(H2) strict positivity/boundedness"),
    ), ("Theorem 3.1 applies", "Theorem 3.2 applies (lambda >= lambda0)"), None),
)


def _run(steps, case, checks: dict):
    for key, run, failed in steps:
        result = run(case)
        passed = bool(getattr(result, "passed", result))
        if key is not None:
            checks[key] = passed
        if failed is not None and not passed:
            raise PredicateFailure(failed, checks, result if isinstance(result, CheckReport) else None)


def check_hypotheses(problem_or_system, window_radii=None) -> dict:
    """The verdict and checks of the first route of ROUTES whose shape
    matches; raises PredicateFailure at the first failed predicate.
    window_radii are the growth radii (None: growth.DEFAULT_RADII)."""
    case = _Case(problem_or_system, tuple(float(R) for R in window_radii) if window_radii else None)
    g, checks = case.growth, {}
    if g is not None:
        checks.update(f_in_S_qprime_plus=g.f.in_S_plus, f_in_SG_qprime_plus=g.f.in_SG_plus,
                      coeffs_strict_S1=g.coeffs.strict, coeffs_relaxed_SG1=g.coeffs.relaxed)
        _run(PREFIX + (H_PREFIX if case.ham is not None else ()), case, checks)
    route = next(r for r in ROUTES if r.shape(case))
    _run(route.steps, case, checks)
    if g is None or g.failure(relaxed=False) is None:
        return {"verdict": route.verdicts[0], "checks": checks}
    if len(route.verdicts) > 1 and g.failure(relaxed=True) is None:
        return {"verdict": route.verdicts[1], "checks": checks}
    raise PredicateFailure(route.growth_failed or g.failure(relaxed=True), checks)
