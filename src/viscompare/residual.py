"""Classical-solution verification by pointwise residual evaluation.

A smooth candidate (value + derivatives, analytic or finite-difference
fallback) is certified against lambda*u + F(x, Du, D^2u) + H(x, Du) = f by
evaluating the residual on a grid; the residual's sign pattern classifies
the candidate as solution / subsolution / supersolution.  Classical
candidates with one-signed residuals are viscosity sub/supersolutions, so
this certifies the closed-form (non)uniqueness examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Polynomial, as_point, as_points

_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)
FD_CONSISTENCY_TOL = 1e-5  # relative gradient-vs-FD(value) deviation fd_consistency allows


@dataclass
class SmoothCandidate:
    """Pointwise evaluators for a C^2 candidate.

    Missing gradient/hessian evaluators are filled by central finite
    differences of the value with step eps^(1/3) * (1 + |x|).  When the
    fallback is active, the gradient must agree with FD(value) to
    FD_CONSISTENCY_TOL before use (fd_consistency, run by verify_solution).
    """

    value: object
    gradient: object = None
    hessian: object = None
    label: str = ""

    @property
    def uses_fd(self) -> bool:
        return self.gradient is None or self.hessian is None

    def val(self, x) -> float:
        return float(self.value(as_point(x)))

    def _fd_step(self, x) -> float:
        return _FD_EPS * (1.0 + float(np.linalg.norm(as_point(x))))

    def _fd_gradient(self, x) -> np.ndarray:
        x = as_point(x)
        h = self._fd_step(x)
        g = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (self.val(x + e) - self.val(x - e)) / (2.0 * h)
        return g

    def _fd_hessian(self, x) -> np.ndarray:
        x = as_point(x)
        h = self._fd_step(x)
        n = x.size
        H = np.empty((n, n))
        f0 = self.val(x)
        for i in range(n):
            ei = np.zeros_like(x)
            ei[i] = h
            H[i, i] = (self.val(x + ei) - 2.0 * f0 + self.val(x - ei)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros_like(x)
                ej[j] = h
                H[i, j] = H[j, i] = (
                    self.val(x + ei + ej)
                    - self.val(x + ei - ej)
                    - self.val(x - ei + ej)
                    + self.val(x - ei - ej)
                ) / (4.0 * h**2)
        return H

    def grad(self, x) -> np.ndarray:
        if self.gradient is None:
            return self._fd_gradient(x)
        return np.atleast_1d(np.asarray(self.gradient(as_point(x)), dtype=float))

    def hess(self, x) -> np.ndarray:
        if self.hessian is None:
            return self._fd_hessian(x)
        H = np.atleast_2d(np.asarray(self.hessian(as_point(x)), dtype=float))
        return 0.5 * (H + H.T)

    def fd_consistency(self, points) -> float:
        """Worst gradient-vs-FD(value) deviation over the points; raises past
        FD_CONSISTENCY_TOL."""
        worst = 0.0
        for x in points:
            dev = float(np.linalg.norm(self.grad(x) - self._fd_gradient(x)))
            worst = max(worst, dev / (1.0 + float(np.linalg.norm(self.grad(x)))))
        if worst > FD_CONSISTENCY_TOL:
            raise ValueError(
                f"candidate {self.label or '<anonymous>'}: gradient disagrees with "
                f"finite differences of the value (relative deviation {worst:.3g} > {FD_CONSISTENCY_TOL})"
            )
        return worst

    @classmethod
    def from_polynomial(cls, poly: Polynomial, label: str = "") -> "SmoothCandidate":
        return cls(value=poly, gradient=poly.gradient, hessian=poly.hessian, label=label)


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    argmax: np.ndarray
    sign_classification: str  # solution | subsolution | supersolution | neither
    tol: float
    min_residual: float
    max_residual: float
    grid_size: int
    # the residual at every grid point, in grid order; not part of the report
    residuals: np.ndarray = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "max_abs_residual": float(self.max_abs_residual),
            "argmax": [float(v) for v in np.atleast_1d(self.argmax)],
            "sign_classification": self.sign_classification,
            "tol": float(self.tol),
            "min_residual": float(self.min_residual),
            "max_residual": float(self.max_residual),
            "grid_size": int(self.grid_size),
        }


def manufactured_rhs(problem, u_star: SmoothCandidate, x) -> float:
    """Right-hand side making u_star an exact solution:
    f := lam u* + F(x, Du*, D^2u*) + H(x, Du*)."""
    x = as_point(x, problem.N)
    g = u_star.grad(x)
    return (
        problem.lam * u_star.val(x)
        + problem.operator(x, g, u_star.hess(x))
        + problem.Hval(x, g)
    )


def pde_residual(problem, candidate: SmoothCandidate, x) -> float:
    """lambda u(x) + F(x, Du, D^2u) + H(x, Du) - f(x)."""
    return manufactured_rhs(problem, candidate, x) - problem.f_at(x)


def verify_solution(problem, candidate: SmoothCandidate, grid, tol: float | None = None) -> ResidualReport:
    """Max grid residual plus sign classification with a scale-aware tol."""
    pts = as_points(grid, problem.N)
    if pts.size == 0:
        raise ValueError("grid must be nonempty")
    if candidate.uses_fd:
        candidate.fd_consistency(pts[:: max(1, len(pts) // 5)][:5])
    res = np.array([pde_residual(problem, candidate, x) for x in pts])
    if tol is None:
        fmax = max(abs(problem.f_at(x)) for x in pts)
        tol = 1e-8 * (1.0 + fmax)
    i = int(np.argmax(np.abs(res)))
    is_sub = res.max() <= tol
    is_super = res.min() >= -tol
    if is_sub and is_super:
        cls = "solution"
    elif is_sub:
        cls = "subsolution"
    elif is_super:
        cls = "supersolution"
    else:
        cls = "neither"
    return ResidualReport(
        max_abs_residual=float(np.abs(res).max()),
        argmax=pts[i],
        sign_classification=cls,
        tol=tol,
        min_residual=float(res.min()),
        max_residual=float(res.max()),
        grid_size=len(pts),
        residuals=res,
    )


def mu_subsolution_residual(problem, candidate: SmoothCandidate, mu: float, x) -> float:
    """Residual of the mu-scaled candidate in the mu-equation:

    lambda (mu u) + F(x, mu Du, mu D^2u) + mu^(1-q) H(x, mu Du) - mu f(x).

    Equals mu * pde_residual for one-homogeneous F and q-homogeneous H.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0,1), got {mu}")
    x = as_point(x, problem.N)
    g = candidate.grad(x)
    return (
        problem.lam * mu * candidate.val(x)
        + problem.operator(x, mu * g, mu * candidate.hess(x))
        + mu ** (1.0 - problem.q) * problem.Hval(x, mu * g)
        - mu * problem.f_at(x)
    )
