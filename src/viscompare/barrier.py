"""Strict supersolutions of the extremal inequality for the gap w = mu*u - v.

The gap between a scaled subsolution and a supersolution satisfies

    lam*w + P(x, D^2 w) - b0(x)|Dw| - beta_mu |Dw|^q <= (mu - 1) f(x),

with beta_mu = ((1-mu)/2)^(1-q) C0.  A barrier

    Phi(x) = (1 - mu) (C1 + alpha <x>^q')

is made a *strict* supersolution by fixing eps = lam/4, the largest
admissible alpha with alpha^(q-1) C0' <= lam/4 (C0' = 2^(q-1) q'^q),
eps' = lam*alpha/4, and window estimates of the growth constants C_eps
(for |sigma0|, b0 against eps|x| + C) and C_eps' (for f against
-eps'|x|^q' - C).  Then

    C1 = lam^-1 [C_eps' + max{C_eps <x>^(q'-2) : <x> <= 4 C_eps / lam}] + 1.

Strictness is always re-verified numerically on the window grid
(verify_strict); for coefficients with merely bounded relative linear
growth the same construction closes only for large lam, found by a
doubling ladder (lambda0_for_SG).  All constants are window estimates and
every report carries the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import growth
from .fields import as_point, as_points
from .operators import check_F3_F4_growth


class BarrierPreconditionError(ValueError):
    """A growth hypothesis failed; the message names it and the fallback."""


@dataclass(frozen=True)
class Window:
    """Verification window: a centered box of the given radius."""

    radius: float
    nodes: int = 4001

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("window radius must be positive")


@dataclass(frozen=True)
class BarrierParams:
    """Constants of the strict-supersolution construction.

    Invariants (validated): eps <= lam/4, alpha^(q-1) C0' <= lam/4,
    eps' <= lam*alpha/4, C1 >= C_eps'/lam + 1, beta_mu > 0.
    """

    mu: float
    q: float
    q_prime: float
    lam: float
    C0: float
    C0_prime: float
    eps: float
    eps_prime: float
    C_eps: float
    C_eps_prime: float
    alpha: float
    C1: float
    beta_mu: float
    window_radius: float

    def __post_init__(self):
        slack = 1e-12
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0,1), got {self.mu}")
        if self.eps > self.lam / 4.0 + slack:
            raise ValueError("eps exceeds lam/4")
        if self.alpha ** (self.q - 1.0) * self.C0_prime > self.lam / 4.0 + slack:
            raise ValueError("alpha^(q-1) C0' exceeds lam/4")
        if self.eps_prime > self.lam * self.alpha / 4.0 + slack:
            raise ValueError("eps' exceeds lam*alpha/4")
        if self.C1 + slack < self.C_eps_prime / self.lam + 1.0:
            raise ValueError("C1 below C_eps'/lam + 1")
        if not self.beta_mu > 0:
            raise ValueError("beta_mu must be positive")

    def to_json_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in (
            "mu", "q", "q_prime", "lam", "C0", "C0_prime", "eps", "eps_prime",
            "C_eps", "C_eps_prime", "alpha", "C1", "beta_mu", "window_radius",
        )}


@dataclass(frozen=True)
class StrictnessReport:
    min_residual: float
    argmin: np.ndarray
    passed: bool
    grid_size: int
    window_radius: float
    # the residual at every grid point, in grid order; not part of the report
    residuals: np.ndarray = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "min_residual": float(self.min_residual),
            "argmin": [float(v) for v in np.atleast_1d(self.argmin)],
            "passed": bool(self.passed),
            "grid_size": int(self.grid_size),
            "window_radius": float(self.window_radius),
        }


@dataclass(frozen=True)
class Lambda0Report:
    lambda0: float | None
    mu: float
    window_radius: float
    rungs: tuple          # (lam, passed, min_residual) per ladder rung
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "lambda0": None if self.lambda0 is None else float(self.lambda0),
            "mu": float(self.mu),
            "window_radius": float(self.window_radius),
            "rungs": [
                {"lam": float(l), "passed": bool(p), "min_residual": float(r)}
                for l, p, r in self.rungs
            ],
            "note": self.note,
        }


def beta_mu(mu: float, q: float, C0: float) -> float:
    """((1-mu)/2)^(1-q) * C0; blows up as mu -> 1."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0,1), got {mu}")
    if not q > 1:
        raise ValueError(f"q must exceed 1, got {q}")
    if C0 < 0:
        raise ValueError(f"C0 must be nonnegative, got {C0}")
    return ((1.0 - mu) / 2.0) ** (1.0 - q) * C0


def window_points(window: Window, dim: int) -> np.ndarray:
    """Deterministic sample points filling the window, shape (M, dim)."""
    if dim == 1:
        return np.linspace(-window.radius, window.radius, window.nodes).reshape(-1, 1)
    dirs = growth.shell_directions(dim, 64)
    radii = np.linspace(0.0, window.radius, max(33, window.nodes // 64))
    pts = [np.zeros(dim)]
    for R in radii[1:]:
        pts.extend(R * d for d in dirs)
    return np.asarray(pts)


def _estimate_C_eps(problem, eps: float, pts: np.ndarray) -> float:
    """Smallest C with max(|sigma0(x)|, b0(x)) <= eps|x| + C on the window."""
    worst = 0.0
    for x in pts:
        coeff = max(problem.extremal.sigma0_norm(x), abs(problem.b0_at(x)))
        worst = max(worst, coeff - eps * float(np.linalg.norm(x)))
    return max(0.0, worst)


def _estimate_C_eps_prime(problem, eps_prime: float, pts: np.ndarray, q_prime: float) -> float:
    """Smallest C with f(x) >= -eps'|x|^q' - C on the window."""
    worst = 0.0
    for x in pts:
        worst = max(worst, -problem.f_at(x) - eps_prime * float(np.linalg.norm(x)) ** q_prime)
    return max(0.0, worst)


def _require_growth(problem, relaxed: bool, growth_tol: float):
    rep = check_F3_F4_growth(problem.extremal, "relaxed" if relaxed else "strict",
                             tol=growth_tol, dim=problem.N)
    f_rep = growth.classify_growth(problem.f_at, problem.q_prime, tol=growth_tol, dim=problem.N)
    if not relaxed:
        if not rep.passed:
            raise BarrierPreconditionError(
                "strict construction refused: |sigma0| or b0 not estimated in the "
                "order-1 vanishing class S_1 on the window; try the large-lambda "
                "relaxation (relaxed=True / lambda0_for_SG)"
            )
        if not f_rep.in_S_plus:
            raise BarrierPreconditionError(
                "strict construction refused: f not estimated in S_{q'}^+ on the "
                "window; try the large-lambda relaxation (relaxed=True / lambda0_for_SG)"
            )
    else:
        if not (rep.sigma0_report.in_SG and rep.b0_report.in_SG):
            raise BarrierPreconditionError(
                "relaxed construction refused: |sigma0| or b0 not estimated in the "
                "order-1 bounded class SG_1 on the window"
            )
        if not f_rep.in_SG_plus:
            raise BarrierPreconditionError(
                "relaxed construction refused: f not estimated in SG_{q'}^+ on the window"
            )


def construct_barrier(problem, mu: float, window: Window, relaxed: bool = False,
                      growth_tol: float = 0.02) -> BarrierParams:
    """Fix the strict-supersolution constants for the given problem.

    eps = lam/4 exactly and alpha the largest admissible value capped at
    0.99 (maximal slack, deterministic); C_eps and C_eps' are window
    estimates.  Refuses when the growth preconditions fail, naming the
    hypothesis and the large-lambda fallback.
    """
    if problem.hamiltonian is None:
        raise BarrierPreconditionError(
            "problem has no gradient term; use linear_case_barrier instead"
        )
    _require_growth(problem, relaxed, growth_tol)
    lam, q = problem.lam, problem.q
    q_prime = problem.q_prime
    C0 = problem.C0
    if C0 is None:
        raise ValueError("problem.C0 (upper Hamiltonian constant) is required")
    C0_prime = 2.0 ** (q - 1.0) * q_prime**q
    eps = lam / 4.0
    alpha = min(0.99, (lam / (4.0 * C0_prime)) ** (1.0 / (q - 1.0)))
    eps_prime = lam * alpha / 4.0
    pts = window_points(window, problem.N)
    C_eps = _estimate_C_eps(problem, eps, pts)
    C_eps_prime = _estimate_C_eps_prime(problem, eps_prime, pts, q_prime)
    # max of C_eps * t^(q'-2) over bracket values t in [1, 4 C_eps / lam];
    # empty when 4 C_eps / lam < 1, and monotone in t, so endpoints suffice
    t_max = 4.0 * C_eps / lam
    if t_max < 1.0:
        peak = 0.0
    elif q_prime >= 2.0:
        peak = C_eps * t_max ** (q_prime - 2.0)
    else:
        peak = C_eps
    C1 = (C_eps_prime + peak) / lam + 1.0
    return BarrierParams(
        mu=mu, q=q, q_prime=q_prime, lam=lam, C0=C0, C0_prime=C0_prime,
        eps=eps, eps_prime=eps_prime, C_eps=C_eps, C_eps_prime=C_eps_prime,
        alpha=alpha, C1=C1, beta_mu=beta_mu(mu, q, C0),
        window_radius=window.radius,
    )


def eval_barrier(params: BarrierParams, x):
    """Phi(x) = (1-mu)(C1 + alpha <x>^q') with gradient and Hessian."""
    x = as_point(x)
    scale = (1.0 - params.mu) * params.alpha
    value = (1.0 - params.mu) * (params.C1 + params.alpha * growth.bracket(x) ** params.q_prime)
    grad, hess = growth.bracket_power_derivatives(x, params.q_prime)
    return value, scale * grad, scale * hess


def extremal_residual(problem, params: BarrierParams, w_value: float, w_grad, w_hess, x) -> float:
    """lam*w + P(x, w_hess) - b0|w_grad| - beta_mu |w_grad|^q - (mu-1) f(x).

    Nonpositive for (smooth) gap functions w = mu*u - v; strictly positive
    for a valid barrier.
    """
    x = as_point(x, problem.N)
    gnorm = float(np.linalg.norm(np.atleast_1d(w_grad)))
    return (
        problem.lam * float(w_value)
        + problem.P(x, w_hess)
        - problem.b0_at(x) * gnorm
        - params.beta_mu * gnorm**params.q
        - (params.mu - 1.0) * problem.f_at(x)
    )


def _strictness(residuals, pts: np.ndarray, window_radius: float) -> StrictnessReport:
    """Report the first minimal residual, or fail at the first non-finite one."""
    residuals = np.asarray(residuals, dtype=float)
    bad = ~np.isfinite(residuals)
    i = int(np.argmax(bad)) if bad.any() else int(np.argmin(residuals))
    return StrictnessReport(
        min_residual=float(residuals[i]),
        argmin=pts[i],
        passed=bool(not bad.any() and residuals[i] > 0.0),
        grid_size=len(pts),
        window_radius=window_radius,
        residuals=residuals,
    )


def verify_strict(problem, params: BarrierParams, grid=None) -> StrictnessReport:
    """Minimum extremal residual of the barrier over the grid (default: the
    params' window); pass iff every residual is finite and > 0."""
    pts = (window_points(Window(params.window_radius), problem.N) if grid is None
           else as_points(grid, problem.N))
    res = [extremal_residual(problem, params, *eval_barrier(params, x), x) for x in pts]
    return _strictness(res, pts, params.window_radius)


def lambda0_for_SG(problem, mu: float, window: Window,
                   ladder_start: float = 1.0 / 16.0,
                   ladder_max: float = 2.0**20) -> Lambda0Report:
    """Smallest ladder lambda whose (relaxed) construction verifies strict.

    Doubling ladder from ladder_start; the returned lambda0 is a
    certified-on-window upper bound for the true threshold.  Exhaustion is
    reported, not raised.
    """
    rungs = []
    lam = ladder_start
    while lam <= ladder_max:
        prob = problem.with_lambda(lam)
        try:
            if prob.hamiltonian is None:
                _, rep = linear_case_barrier(prob, window)
            else:
                params = construct_barrier(prob, mu, window, relaxed=True)
                rep = verify_strict(prob, params)
        except BarrierPreconditionError as exc:
            return Lambda0Report(None, mu, window.radius, tuple(rungs), note=str(exc))
        rungs.append((lam, rep.passed, rep.min_residual))
        if rep.passed:
            return Lambda0Report(lam, mu, window.radius, tuple(rungs))
        lam *= 2.0
    return Lambda0Report(
        None, mu, window.radius, tuple(rungs),
        note=f"ladder exhausted at lambda > {ladder_max:g}; no on-window strict barrier found",
    )


@dataclass(frozen=True)
class LinearBarrier:
    """Barrier alpha <x>^q' + C1 for problems without a gradient term."""

    alpha: float
    C1: float
    eps: float
    C_eps: float
    lam: float
    q_prime: float
    window_radius: float

    def __call__(self, x):
        x = as_point(x)
        value = self.C1 + self.alpha * growth.bracket(x) ** self.q_prime
        grad, hess = growth.bracket_power_derivatives(x, self.q_prime)
        return value, self.alpha * grad, self.alpha * hess

    def to_json_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in (
            "alpha", "C1", "eps", "C_eps", "lam", "q_prime", "window_radius",
        )}


def linear_case_barrier(problem, window: Window, alpha: float = 1.0):
    """Strict supersolution of lam*w + P(x, D^2 w) - b0|Dw| = 0 (no H).

    Phi = alpha <x>^q' + C1 with alpha, C1 >= 1 and C1 >= C_eps/lam + 1,
    C_eps estimated at eps = lam/4 on the window; strictness verified on
    the window grid.
    """
    if problem.hamiltonian is not None:
        raise ValueError("linear_case_barrier requires a problem without a gradient term")
    lam = problem.lam
    q_prime = problem.q_prime
    pts = window_points(window, problem.N)
    eps = lam / 4.0
    C_eps = _estimate_C_eps(problem, eps, pts)
    C1 = max(1.0, C_eps / lam + 1.0)
    bar = LinearBarrier(alpha=max(1.0, alpha), C1=C1, eps=eps, C_eps=C_eps,
                        lam=lam, q_prime=q_prime, window_radius=window.radius)
    res = []
    for x in pts:
        v, g, h = bar(x)
        res.append(lam * v + problem.P(x, h) - problem.b0_at(x) * float(np.linalg.norm(g)))
    return bar, _strictness(res, pts, window.radius)


def system_extremal_residual(system, params_per_k, w_value: float, w_grad, w_hess, x) -> float:
    """lam*w + min_k { P_k(x, w_hess) - b_k|w_grad| - beta_mu|w_grad|^q - (mu-1) f_k }.

    All components share q and C0; with m = 1 this is the scalar residual.
    """
    x = as_point(x)
    gnorm = float(np.linalg.norm(np.atleast_1d(w_grad)))
    best = np.inf
    for k in range(system.m):
        params = params_per_k[k] if not isinstance(params_per_k, BarrierParams) else params_per_k
        ext = system.extremal(k)
        term = (
            ext.P(x, w_hess)
            - ext.b0_at(x) * gnorm
            - params.beta_mu * gnorm**params.q
            - (params.mu - 1.0) * system.f_at(k, x)
        )
        best = min(best, term)
    lam = system.lam
    return lam * float(w_value) + best
