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

sigma0, b0 and f depend on neither lam nor mu, so each point set is
sampled once (_Sample); C_eps, C_eps' and the strictness residuals are array
expressions over the sample, bit-identical to the pointwise eval_barrier and
extremal_residual.  BarrierParams carries the window it was built on and
that sample: verify_strict re-verifies strictness numerically on the same
nodes, reusing the sample for the same problem data, and
BarrierParams.with_mu gives the construction at another mu without
sampling again.  For coefficients with merely bounded relative linear
growth the same construction closes only for large lam, found by a doubling
ladder (lambda0_for_SG) on one window sample.  All constants are window
estimates and every report carries the window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import growth
from .fields import _row_dots, _scalar_pow, as_point, as_points
from .operators import growth_hypotheses

LADDER_START, LADDER_MAX = 1.0 / 16.0, 2.0**20  # lambda0 ladder: first rung, last rung
LINEAR_ALPHA = 1.0         # alpha of the linear-case barrier


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
    # the window the constants were estimated on and its sample, carried so
    # that verify_strict checks the same nodes; not part of the report
    window: Window = field(default=None, init=False, repr=False, compare=False)
    sample: _Sample = field(default=None, init=False, repr=False, compare=False)

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

    def with_mu(self, mu: float) -> "BarrierParams":
        """The same construction at another mu: only mu and beta_mu depend
        on it, and the window and its sample are carried over."""
        out = dataclasses.replace(self, mu=mu, beta_mu=beta_mu(mu, self.q, self.C0))
        out._carry(self.window, self.sample)
        return out

    def _carry(self, window, sample):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "sample", sample)

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
    return np.vstack([np.zeros((1, dim)), (radii[1:, None, None] * dirs).reshape(-1, dim)])


class _Sample:
    """The data of one problem at pts (M, N): one pass of sigma0_at, b0_at, f_at."""

    def __init__(self, problem, pts: np.ndarray):
        ext = problem.extremal
        s0, b0, f = zip(*[(ext.sigma0_at(x), ext.b0_at(x), problem.f_at(x)) for x in pts])
        s0 = np.array(s0)
        sq = _row_dots(pts)
        self.extremal, self.f_field = ext, problem.f
        self.pts = pts
        self.norms = np.sqrt(sq)          # |x|
        self.bracket = np.sqrt(1.0 + sq)  # <x>
        self.diffusion = s0 @ s0.swapaxes(1, 2)
        self.b0 = np.array(b0)
        self.f = np.array(f)
        # max(|sigma0|, |b0|) in Python's max order: b0 wins only when larger
        s0_norm = np.abs(np.linalg.eigvalsh(0.5 * (s0 + s0.swapaxes(1, 2)))).max(axis=1)
        b0_abs = np.abs(self.b0)
        self.coeff = np.where(b0_abs > s0_norm, b0_abs, s0_norm)

    def of(self, problem) -> bool:
        """Whether problem has the sampled data (with_lambda keeps them)."""
        return problem.extremal is self.extremal and problem.f is self.f_field


def _excess(values: np.ndarray) -> float:
    """max(0, largest value) as a running Python max: NaN skipped, -0.0 -> 0.0."""
    return max(0.0, float(np.max(values[~np.isnan(values)], initial=0.0)))


def _require_growth(problem, relaxed: bool):
    failed = growth_hypotheses(problem, None).failure(relaxed)
    if failed:
        mode, fallback = (("relaxed", "") if relaxed else
                          ("strict", "; try the large-lambda relaxation (relaxed=True / lambda0_for_SG)"))
        raise BarrierPreconditionError(f"{mode} construction refused: {failed}{fallback}")


def construct_barrier(problem, mu: float, window: Window, relaxed: bool = False) -> BarrierParams:
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
    _require_growth(problem, relaxed)
    return _barrier_params(problem, mu, window, _Sample(problem, window_points(window, problem.N)))


def _barrier_params(problem, mu: float, window: Window, sample: _Sample) -> BarrierParams:
    lam, q = problem.lam, problem.q
    q_prime = problem.q_prime
    C0 = problem.C0
    if C0 is None:
        raise ValueError("problem.C0 (upper Hamiltonian constant) is required")
    C0_prime = 2.0 ** (q - 1.0) * q_prime**q
    eps = lam / 4.0
    alpha = min(0.99, (lam / (4.0 * C0_prime)) ** (1.0 / (q - 1.0)))
    eps_prime = lam * alpha / 4.0
    # smallest C with max(|sigma0|, b0) <= eps|x| + C, and with
    # f >= -eps'|x|^q' - C, on the sample
    C_eps = _excess(sample.coeff - eps * sample.norms)
    C_eps_prime = _excess(-sample.f - eps_prime * _scalar_pow(sample.norms, q_prime))
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
    params = BarrierParams(
        mu=mu, q=q, q_prime=q_prime, lam=lam, C0=C0, C0_prime=C0_prime,
        eps=eps, eps_prime=eps_prime, C_eps=C_eps, C_eps_prime=C_eps_prime,
        alpha=alpha, C1=C1, beta_mu=beta_mu(mu, q, C0),
        window_radius=window.radius,
    )
    params._carry(window, sample)
    return params


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


def _residual(sample: _Sample, lam: float, outer: float, alpha: float, C1: float, q_prime: float):
    """lam*Phi + P(x, D^2 Phi) - b0|D Phi| and |D Phi| at the sample points for
    Phi = outer (C1 + alpha <x>^q'), in the float order of eval_barrier and
    extremal_residual (scalar pow, the pointwise BLAS kernels): bit for bit."""
    scale = outer * alpha
    value = outer * (C1 + alpha * _scalar_pow(sample.bracket, q_prime))
    grad, hess = growth.bracket_power_stacks(sample.pts, q_prime)
    grad, hess = scale * grad, scale * hess
    gnorm = np.sqrt(_row_dots(grad))
    P = -np.trace(sample.diffusion @ hess, axis1=1, axis2=2)
    return lam * value + P - sample.b0 * gnorm, gnorm


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
    nodes of the window the params were built on); pass iff every residual
    is finite and > 0.  Without a grid, the params' own sample is reused when
    problem has the sampled extremal data and f."""
    if grid is not None:
        sample = _Sample(problem, as_points(grid, problem.N))
    elif params.sample is not None and params.sample.of(problem):
        sample = params.sample
    else:
        window = params.window or Window(params.window_radius)
        sample = _Sample(problem, window_points(window, problem.N))
    return _verify(problem, params, sample)


def _verify(problem, params: BarrierParams, sample: _Sample) -> StrictnessReport:
    res, gnorm = _residual(sample, problem.lam, 1.0 - params.mu, params.alpha, params.C1,
                           params.q_prime)
    res = res - params.beta_mu * _scalar_pow(gnorm, params.q) - (params.mu - 1.0) * sample.f
    return _strictness(res, sample.pts, params.window_radius)


def lambda0_for_SG(problem, mu: float, window: Window) -> Lambda0Report:
    """Smallest ladder lambda whose (relaxed) construction verifies strict.

    Doubling ladder from LADDER_START; the returned lambda0 is a
    certified-on-window upper bound for the true threshold.  All rungs
    construct and verify on one window sample.  Exhaustion is reported, not raised.
    """
    linear = problem.hamiltonian is None
    if not linear:
        try:
            _require_growth(problem, relaxed=True)
        except BarrierPreconditionError as exc:
            return Lambda0Report(None, mu, window.radius, (), note=str(exc))
    sample = _Sample(problem, window_points(window, problem.N))
    rungs = []
    lam = LADDER_START
    while lam <= LADDER_MAX:
        prob = problem.with_lambda(lam)
        if linear:
            _, rep = _linear_barrier(prob, window.radius, sample)
        else:
            rep = _verify(prob, _barrier_params(prob, mu, window, sample), sample)
        rungs.append((lam, rep.passed, rep.min_residual))
        if rep.passed:
            return Lambda0Report(lam, mu, window.radius, tuple(rungs))
        lam *= 2.0
    return Lambda0Report(
        None, mu, window.radius, tuple(rungs),
        note=f"ladder exhausted at lambda > {LADDER_MAX:g}; no on-window strict barrier found",
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

    def to_json_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in (
            "alpha", "C1", "eps", "C_eps", "lam", "q_prime", "window_radius",
        )}


def linear_case_barrier(problem, window: Window):
    """Strict supersolution of lam*w + P(x, D^2 w) - b0|Dw| = 0 (no H).

    Phi = <x>^q' + C1 (alpha = 1) with C1 >= 1 and C1 >= C_eps/lam + 1,
    C_eps estimated at eps = lam/4 on the window; strictness verified on
    the window grid.
    """
    if problem.hamiltonian is not None:
        raise ValueError("linear_case_barrier requires a problem without a gradient term")
    return _linear_barrier(problem, window.radius,
                           _Sample(problem, window_points(window, problem.N)))


def _linear_barrier(problem, window_radius: float, sample: _Sample):
    lam = problem.lam
    eps = lam / 4.0
    C_eps = _excess(sample.coeff - eps * sample.norms)
    bar = LinearBarrier(alpha=LINEAR_ALPHA, C1=max(1.0, C_eps / lam + 1.0), eps=eps,
                        C_eps=C_eps, lam=lam, q_prime=problem.q_prime,
                        window_radius=window_radius)
    res, _ = _residual(sample, lam, 1.0, bar.alpha, bar.C1, bar.q_prime)
    return bar, _strictness(res, sample.pts, window_radius)


def system_extremal_residual(system, params_per_k, w_value: float, w_grad, w_hess, x) -> float:
    """min over k of extremal_residual of component k (the components share
    lam, q and C0); with m = 1 this is the scalar residual."""
    return min(
        extremal_residual(system.scalar_problem(k), params_per_k[k], w_value, w_grad, w_hess, x)
        for k in range(system.m)
    )
