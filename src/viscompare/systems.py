"""Weakly coupled monotone systems: residuals, the monotonicity condition,
the max-component gap, and a component-sweep solver.

Component k solves F_k(x, u, Du_k, D^2u_k) + H_k(x, Du_k) = f_k with
F_k(x, r, xi, X) = -Tr(sigma_k sigma_k^T X) + <b_k, xi> + lam r_k +
coupling_k(r).  The monotonicity condition (at the argmax component j of
r - s, F_j(r) - F_j(s) >= lam (r_j - s_j)) makes the componentwise
Gauss-Seidel sweep with frozen coupling behave like a monotone update.
Argmax ties always break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import as_point
from .hamiltonians import CHECK_TOL, CheckReport, PowerHamiltonian, sampled_homogeneity, worst_case
from .operators import DriftDiffusionOperator, ExtremalOperator, canonical_extremal
from .problems import ProblemSpec
from .solver import (Box, DiscreteOperator, SchemeConfig, _boundary_values,
                     _field_on_interior, _solve)

MAX_SWEEPS = 50  # Gauss-Seidel sweep cap per system solve


@dataclass(frozen=True)
class SystemComponent:
    operator: DriftDiffusionOperator
    hamiltonian: object
    f: object                 # scalar field
    coupling: object = None   # callable r -> float, or None


@dataclass(frozen=True)
class MonotoneSystem:
    """m >= 1 components sharing lam, q and the Hamiltonian bound C0."""

    lam: float
    q: float
    components: tuple
    C0: float = None
    name: str = ""

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("system needs at least one component")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def N(self) -> int:
        return self.components[0].operator.N

    def coupling_at(self, k: int, r) -> float:
        c = self.components[k].coupling
        return 0.0 if c is None else float(c(np.asarray(r, dtype=float)))

    def F(self, k: int, x, r, xi, X) -> float:
        r = np.asarray(r, dtype=float)
        return (
            self.components[k].operator(x, xi, X)
            + self.lam * float(r[k])
            + self.coupling_at(k, r)
        )

    def Hval(self, k: int, x, xi) -> float:
        H = self.components[k].hamiltonian
        return 0.0 if H is None else float(H(x, xi))

    def f_at(self, k: int, x) -> float:
        f = self.components[k].f
        return float(f(as_point(x))) if callable(f) else float(f)

    def extremal(self, k: int) -> ExtremalOperator:
        return canonical_extremal(self.components[k].operator)

    def scalar_problem(self, k: int) -> ProblemSpec:
        comp = self.components[k]
        return ProblemSpec(
            N=self.N, lam=self.lam, operator=comp.operator,
            hamiltonian=comp.hamiltonian, q=self.q, f=comp.f,
            C0=self.C0, name=f"{self.name or 'system'}[{k}]",
        )


def check_M(system: MonotoneSystem, r_s_samples) -> CheckReport:
    """At the argmax component j of r - s (>= 0 required, lowest-index ties),
    verify F_j(x, r, ...) - F_j(x, s, ...) >= lam (r_j - s_j) - CHECK_TOL,
    sampled at x, xi, X = 0 (the operator part cancels in the difference)."""
    x, xi, X = np.zeros(system.N), np.zeros(system.N), np.zeros((system.N, system.N))
    margins, cases = [], []
    for r, s in r_s_samples:
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        j = int(np.argmax(r - s))
        if r[j] - s[j] < 0:
            continue
        margins.append(system.F(j, x, r, xi, X) - system.F(j, x, s, xi, X)
                       - system.lam * (r[j] - s[j]))
        cases.append((r.copy(), s.copy(), j))
    if not margins:
        raise ValueError("no sample pair with max_k(r_k - s_k) >= 0")
    worst, i = worst_case(margins, np.inf, larger=False)
    return CheckReport("M monotone coupling", worst >= -CHECK_TOL, worst,
                       None if i is None else cases[i])


def check_F2prime(system: MonotoneSystem, samples, thetas) -> CheckReport:
    """F(x, theta r, theta xi, theta X) = theta F(x, r, xi, X) componentwise."""
    cases = [(k, x, *(np.asarray(v, dtype=float) for v in (r, xi, X)))
             for x, r, xi, X in samples for k in range(system.m)]
    return sampled_homogeneity(
        "F2' homogeneity", lambda c, t: system.F(c[0], c[1], t * c[2], t * c[3], t * c[4]),
        cases, thetas, 1)


def manufactured_system_rhs(system: MonotoneSystem, u_stars, k: int, x) -> float:
    """f_k making (u*_1, ..., u*_m) an exact system solution."""
    x = as_point(x, system.N)
    r = np.array([c.val(x) for c in u_stars])
    g = u_stars[k].grad(x)
    return system.F(k, x, r, g, u_stars[k].hess(x)) + system.Hval(k, x, g)


def system_residual(system: MonotoneSystem, candidates, k: int, x) -> float:
    """F_k(x, u(x), Du_k, D^2u_k) + H_k(x, Du_k) - f_k(x)."""
    return manufactured_system_rhs(system, candidates, k, x) - system.f_at(k, x)


def max_component_gap(system: MonotoneSystem, u_candidates, v_candidates,
                      mu: float, x):
    """w(x) = max_k (mu u_k - v_k)(x); lowest-index tie-break."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0,1), got {mu}")
    x = as_point(x, system.N)
    gaps = np.array([mu * u.val(x) - v.val(x) for u, v in zip(u_candidates, v_candidates)])
    k = int(np.argmax(gaps))
    return float(gaps[k]), k


@dataclass
class SystemSolveReport:
    sweeps: int
    final_residual_norm: float
    converged: bool
    sweep_residuals: tuple
    component_reports: tuple

    def to_json_dict(self) -> dict:
        return {
            "sweeps": int(self.sweeps),
            "final_residual_norm": float(self.final_residual_norm),
            "converged": bool(self.converged),
            "sweep_residuals": [float(v) for v in self.sweep_residuals],
        }


def solve_system(system: MonotoneSystem, box: Box, h: float, boundary_per_k):
    """Gauss-Seidel over components with the coupling frozen per inner solve.

    Each component's grid operator, boundary array and right-hand side are
    built once, before the first sweep, and every inner solve reuses them.
    An inner solve is the scalar solver on component k with the coupling
    evaluated at the current iterates (all-zero before the first sweep) and
    moved to the right-hand side; uncoupled components solve with their
    own f (identical float sequence to a direct solver.solve call).
    After every sweep the live residual, coupling included, is measured on
    the same LF scheme the inner solves used; sweeps stop once it is at the
    inner solves' own residual level.
    """
    discs = [DiscreteOperator(system.scalar_problem(k), box, h) for k in range(system.m)]
    sl = tuple(slice(1, -1) for _ in discs[0].shape)
    f_int = [_field_on_interior(discs[k], lambda x, k=k: system.f_at(k, x))
             for k in range(system.m)]
    u_boundary = [_boundary_values(discs[k], boundary_per_k[k]) for k in range(system.m)]

    values = [np.zeros(discs[k].shape) for k in range(system.m)]
    fields = [None] * system.m
    reports = [None] * system.m

    def coupling_int(k):
        rs = np.stack([values[j][sl].ravel() for j in range(system.m)])
        return np.array([system.coupling_at(k, rs[:, i]) for i in range(rs.shape[1])])

    def live_residual():
        worst = 0.0
        for k in range(system.m):
            rhs = f_int[k].copy()
            if system.components[k].coupling is not None:
                rhs -= coupling_int(k)
            # the scheme the inner solves applied, so a converged component
            # reproduces its own scheme residual
            r = discs[k].residual(values[k], rhs, discs[k].local_scheme(values[k])[1])
            worst = max(worst, float(np.abs(r).max()))
        return worst

    tol = SchemeConfig().tol_residual  # the inner solves' stopping residual
    sweep_residuals = []
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        for k in range(system.m):
            rhs = f_int[k]
            if system.components[k].coupling is not None:
                rhs = rhs - coupling_int(k)
            sol, rep = _solve(discs[k], u_boundary[k], rhs)
            values[k] = sol.values
            fields[k] = sol
            reports[k] = rep
        res = live_residual()
        sweep_residuals.append(res)
        if res <= max(tol, 2.0 * max(r.final_residual_norm for r in reports)):
            converged = True
            break
    report = SystemSolveReport(
        sweeps=sweeps,
        final_residual_norm=sweep_residuals[-1],
        converged=converged,
        sweep_residuals=tuple(sweep_residuals),
        component_reports=tuple(reports),
    )
    return fields, report


def system2(coupling: str = "none", c: float = 0.5, lam: float = 1.0,
            f_list=None) -> MonotoneSystem:
    """Two quadratic-gradient components, optionally coupled.

    coupling: "none" (decoupled copies), "mean" (c*(r_k - mean r), monotone),
    or "minus2lam" (-2 lam r_k, which breaks the monotonicity condition).
    """
    def make_coupling(k):
        if coupling == "none":
            return None
        if coupling == "mean":
            return lambda r, k=k: c * (float(r[k]) - float(np.mean(r)))
        if coupling == "minus2lam":
            return lambda r, k=k: -2.0 * lam * float(r[k])
        raise ValueError(f"unknown coupling {coupling!r}")

    comps = []
    for k in range(2):
        f_k = 0.0 if f_list is None else f_list[k]
        comps.append(SystemComponent(
            operator=DriftDiffusionOperator(sigma=np.eye(1), b=np.zeros(1), N=1),
            hamiltonian=PowerHamiltonian(A=np.eye(1), q=2.0),
            f=f_k if callable(f_k) else (lambda x, v=float(f_k): v),
            coupling=make_coupling(k),
        ))
    return MonotoneSystem(lam=lam, q=2.0, components=tuple(comps), C0=1.0,
                          name="system2")
