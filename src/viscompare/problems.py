"""Scalar problem instances and the built-in example catalogue.

A ProblemSpec bundles one equation lambda*u + F(x,Du,D^2u) + H(x,Du) = f:
the drift-diffusion operator, the Hamiltonian (possibly absent), the
superlinear exponent q, the right-hand side, and the extremal data
(canonically sigma0 = sigma, b0 = |b|).  The builders below reproduce the
closed-form uniqueness/non-uniqueness examples together with their exact
solutions; BUILTIN_PROBLEMS and closed_forms are the only catalogue of them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fields import as_point
from .growth import conjugate
from .hamiltonians import (
    GameHamiltonian,
    MinConvexHamiltonian,
    PowerHamiltonian,
    SignedScalarHamiltonian,
)
from .operators import DriftDiffusionOperator, ExtremalOperator, canonical_extremal
from .residual import SmoothCandidate


@dataclass(frozen=True)
class ProblemSpec:
    """One scalar PDE instance lambda*u + F + H = f in R^N."""

    N: int
    lam: float
    operator: DriftDiffusionOperator
    hamiltonian: object  # one of the Hamiltonian forms, or None
    q: float
    f: object            # scalar field
    extremal: ExtremalOperator = None
    C0: float = None     # upper Hamiltonian constant, H <= C0 |xi|^q
    name: str = ""

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.q > 1:
            raise ValueError(f"superlinear exponent requires q > 1, got {self.q}")
        if self.extremal is None:
            object.__setattr__(self, "extremal", canonical_extremal(self.operator))

    @property
    def q_prime(self) -> float:
        return conjugate(self.q)

    def f_at(self, x) -> float:
        return float(self.f(as_point(x, self.N))) if callable(self.f) else float(self.f)

    def Hval(self, x, xi) -> float:
        return 0.0 if self.hamiltonian is None else float(self.hamiltonian(x, xi))

    def F(self, x, xi, X) -> float:
        return self.operator(x, xi, X)

    def P(self, x, X) -> float:
        return self.extremal.P(x, X)

    def b0_at(self, x) -> float:
        return self.extremal.b0_at(x)

    def with_lambda(self, lam: float) -> "ProblemSpec":
        return dataclasses.replace(self, lam=float(lam))

    def with_f(self, f) -> "ProblemSpec":
        return dataclasses.replace(self, f=f)


def _zero_field(x) -> float:
    return 0.0


# ---------------------------------------------------------------------------
# built-in problems


def _quadratic_1d(name: str, op: DriftDiffusionOperator, lam: float) -> ProblemSpec:
    """1-d instance with H = |xi|^2, f = 0 and C0 = 1."""
    return ProblemSpec(
        N=1, lam=lam, operator=op,
        hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
        q=2.0, f=_zero_field, C0=1.0, name=name,
    )


def eq12(lam: float = 1.0) -> ProblemSpec:
    """1-d: lam*u - u'' + |u'|^2 = 0; two classical solutions."""
    return _quadratic_1d("eq12", DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1), lam)


def eq13(lam: float = 1.0, q: float = 2.0, f=None, N: int = 1) -> ProblemSpec:
    """lam*u - Lap(u) + |Du|^q = f; the bounded-coefficient model problem."""
    op = DriftDiffusionOperator(sigma=np.eye(N), b=np.zeros(N), N=N)
    return ProblemSpec(
        N=N, lam=lam, operator=op,
        hamiltonian=PowerHamiltonian(A=np.eye(N), q=q),
        q=q, f=f if f is not None else _zero_field, C0=1.0, name="eq13",
    )


def hje3(lam: float = 1.0, t: float = -1.0) -> ProblemSpec:
    """1-d: lam*u - u'' + |u'|^2 + t*x*u' = 0; drift grows linearly."""
    op = DriftDiffusionOperator(sigma=np.eye(1), b=lambda x: t * as_point(x), N=1)
    return _quadratic_1d("hje3", op, lam)


def ex2() -> ProblemSpec:
    """1-d: u - (1+x^2) u'' + |u'|^2 = 0; diffusion coefficient grows."""
    op = DriftDiffusionOperator(
        sigma=lambda x: np.array([[math.sqrt(1.0 + float(as_point(x)[0]) ** 2)]]),
        b=np.zeros(1), N=1,
    )
    return _quadratic_1d("ex2", op, 1.0)


def example1(sigma, b, A, q: float, f, N: int, lam: float = 1.0) -> ProblemSpec:
    """General drift-diffusion + power-form instance."""
    op = DriftDiffusionOperator(sigma=sigma, b=b, N=N)
    return ProblemSpec(
        N=N, lam=lam, operator=op,
        hamiltonian=PowerHamiltonian(A=A, q=q),
        q=q, f=f, name="example1",
    )


def signswitch(lam: float = 1.0) -> ProblemSpec:
    """1-d: lam*u + x^3 |u'|^2 = lam; Gamma = {0}, solutions pinned there."""
    op = DriftDiffusionOperator(sigma=np.zeros((1, 1)), b=np.zeros(1), N=1)
    return ProblemSpec(
        N=1, lam=lam, operator=op,
        hamiltonian=SignedScalarHamiltonian(a=lambda x: float(as_point(x)[0]) ** 3, q=2.0),
        q=2.0, f=lambda x: lam, name="signswitch",
    )


def minconvex_problem(lam: float = 1.0) -> ProblemSpec:
    """1-d min-of-convex instance: H = min(|xi|^2, 4|xi|^2)."""
    op = DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1)
    comps = (
        PowerHamiltonian(A=np.eye(1), q=2.0),
        PowerHamiltonian(A=4.0 * np.eye(1), q=2.0),
    )
    return ProblemSpec(
        N=1, lam=lam, operator=op,
        hamiltonian=MinConvexHamiltonian(components=comps, q=2.0),
        q=2.0, f=_zero_field, C0=4.0, name="minconvex",
    )


def game_problem(lam: float = 1.0) -> ProblemSpec:
    """1-d game-form instance with 2x2 index sets satisfying the positivity
    condition: sigma in {1, 1.5} over alpha, tau = 0.25."""
    def sig(x, alpha, beta):
        return np.array([[1.0 + 0.5 * alpha]])

    def tau(x, alpha, beta):
        return np.array([[0.25]])

    ham = GameHamiltonian(alpha_set=(0, 1), beta_set=(0, 1), sigma=sig, tau=tau)
    op = DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1)
    return ProblemSpec(
        N=1, lam=lam, operator=op, hamiltonian=ham, q=2.0,
        f=_zero_field, C0=2.25, name="game",
    )


# ---------------------------------------------------------------------------
# closed-form solutions


def zero_candidate(N: int = 1, label: str = "u1") -> SmoothCandidate:
    return SmoothCandidate(
        value=lambda x: 0.0,
        gradient=lambda x: np.zeros(N),
        hessian=lambda x: np.zeros((N, N)),
        label=label,
    )


def quadratic_candidate(a2: float, a0: float, label: str = "") -> SmoothCandidate:
    """1-d candidate a2*x^2 + a0 with analytic derivatives."""
    return SmoothCandidate(
        value=lambda x: a2 * float(as_point(x)[0]) ** 2 + a0,
        gradient=lambda x: np.array([2.0 * a2 * float(as_point(x)[0])]),
        hessian=lambda x: np.array([[2.0 * a2]]),
        label=label,
    )


def eq12_solutions(lam: float = 1.0):
    """u1 = 0 and u2 = -(lam/4) x^2 - 1/2."""
    return zero_candidate(1, "u1"), quadratic_candidate(-lam / 4.0, -0.5, "u2")


def hje3_solutions(lam: float = 1.0, t: float = -1.0):
    """u1 = 0 and u2 = -((lam+2t)/4) x^2 - (lam+2t)/(2 lam)."""
    c = lam + 2.0 * t
    return zero_candidate(1, "u1"), quadratic_candidate(-c / 4.0, -c / (2.0 * lam), "u2")


def ex2_solutions():
    """v1 = 0 and v2 = 1/2 + x^2/4."""
    return zero_candidate(1, "v1"), quadratic_candidate(0.25, 0.5, "v2")


# the non-uniqueness examples: name -> (lam, t) -> (problem, solutions)
_CLOSED_FORMS = {
    "eq12": lambda lam, t: (eq12(lam), eq12_solutions(lam)),
    "hje3": lambda lam, t: (hje3(lam, t), hje3_solutions(lam, t)),
    "ex2": lambda lam, t: (ex2(), ex2_solutions()),
}


def closed_forms(name: str, lam: float = 1.0, t: float = -1.0):
    """(problem, closed-form solutions) of a non-uniqueness example; ex2
    fixes lam = 1 and only hje3 reads t."""
    build = _CLOSED_FORMS.get(name) if isinstance(name, str) else None
    if build is None:
        raise ValueError(f"no closed-form solutions catalogued for {name!r}")
    return build(lam, t)


BUILTIN_PROBLEMS = {
    "eq12": eq12,
    "eq13": eq13,
    "hje3": hje3,
    "ex2": ex2,
    "example1": example1,
    "signswitch": signswitch,
    "minconvex": minconvex_problem,
    "game": game_problem,
}
