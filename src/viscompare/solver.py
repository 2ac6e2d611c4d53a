"""Monotone finite-difference solver on truncated boxes (1-d and 2-d).

Discretization: 3-point second differences for the (axis-aligned) diffusion,
first-order upwinding for the drift, and a local Lax-Friedrichs
regularization for the gradient term,

    H(x, Dc u) - sum_ax lf_ax * (second difference)_ax * h_ax / 2,

with Dc the central gradient and lf_ax = 1.2 |dH/dxi_ax| per node, retuned
at every iterate's central gradients (the per-axis maximum is reported as
lf_used).  Since lf_ax >= |dH/dxi_ax|, every off-center stencil
coefficient of the linearized update has the monotone sign, which is the
discrete counterpart of degenerate ellipticity and grants a discrete
comparison principle.

The nonlinear system is solved by a damped semismooth Newton sweep: H is
linearized at the current central gradient, the resulting monotone sparse
linear system is solved exactly, and the update is damped.  For game-form
Hamiltonians the slope comes from the current argmin/argmax index pair, so
the sweep is exactly Howard policy iteration (freeze policies, solve,
re-optimize).

The coefficients are evaluated once per grid: DiscreteOperator samples the
diffusion, the drift and the Hamiltonian's coefficient fields at the
interior nodes when it is built (hamiltonians.on_grid), and every
iteration evaluates H and dH/dxi as whole arrays over the nodes.  solve
builds one operator and runs the iteration (_solve) on it; comparison_check,
nonuniqueness_demo and systems.solve_system build one operator per grid and
run all of their solves on it.

Truncation replaces behavior at infinity by Dirichlet data; choosing
boundary traces of candidate solutions with different growth tells the
non-uniqueness story at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import growth as growth_mod
from .hamiltonians import check_A4, compute_gamma, on_grid
from .operators import check_A1_A3
from .problems import closed_forms
from .residual import manufactured_rhs, verify_solution  # noqa: F401  (re-exported)

MAX_ITERS = 200  # Newton / Howard iteration cap per solve
ORDER_TOL = 1e-8  # comparison_check: allowed negative gap between ordered solutions


@dataclass(frozen=True)
class Box:
    """Axis-aligned truncation box, center +- half_width per axis."""

    center: tuple
    half_width: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        w = tuple(float(v) for v in np.atleast_1d(self.half_width))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_width", w)
        if len(c) != len(w):
            raise ValueError("center and half_width must have equal length")
        if any(v <= 0 for v in w):
            raise ValueError("half_width must be positive")
        if len(c) not in (1, 2):
            raise ValueError("solver supports N in {1, 2}")

    @property
    def N(self) -> int:
        return len(self.center)


def _mesh_points(axes) -> np.ndarray:
    """Tensor-grid nodes, shape (n, N), the last axis varying fastest."""
    if len(axes) == 1:
        return axes[0].reshape(-1, 1)
    X0, X1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([X0.ravel(), X1.ravel()])


@dataclass
class DiscreteField:
    """Grid function on the box with Dirichlet boundary values baked in."""

    axes: tuple          # per-axis node coordinates
    values: np.ndarray   # shape (n0,) or (n0, n1)
    h: tuple             # realized spacings

    def __post_init__(self):
        for ax in self.axes:
            if len(ax) % 2 == 0:
                raise ValueError("node count must be odd per axis (center node exists)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def points(self) -> np.ndarray:
        return _mesh_points(self.axes)


@dataclass
class SchemeConfig:
    """Iteration knobs; damping None means 1.0 without a gradient term and
    0.5 with one."""

    damping: float | None = None
    tol_residual: float = 1e-9


@dataclass
class SolveReport:
    iterations: int
    final_residual_norm: float
    monotonicity_certificate: bool
    converged: bool
    lf_used: tuple
    damping: float
    residual_history: tuple

    def to_json_dict(self) -> dict:
        return {
            "iterations": int(self.iterations),
            "final_residual_norm": float(self.final_residual_norm),
            "monotonicity_certificate": bool(self.monotonicity_certificate),
            "converged": bool(self.converged),
            "lf_used": [float(v) for v in self.lf_used],
            "damping": float(self.damping),
            "residual_history": [float(v) for v in self.residual_history],
        }


class DiscreteOperator:
    """Node-wise update rule for one problem on one grid."""

    def __init__(self, problem, box: Box, h: float):
        if box.N != problem.N:
            raise ValueError(f"box dimension {box.N} != problem dimension {problem.N}")
        self.problem = problem
        self.box = box
        axes, spacings = [], []
        for c, w in zip(box.center, box.half_width):
            m = max(2, round(w / h))
            axes.append(np.linspace(c - w, c + w, 2 * m + 1))
            spacings.append(w / m)
        self.axes = tuple(axes)
        self.h = tuple(spacings)
        self.shape = tuple(len(ax) for ax in axes)
        self.int_shape = tuple(n - 2 for n in self.shape)
        self.n_interior = int(np.prod(self.int_shape))
        self.points_int = _mesh_points([ax[1:-1] for ax in self.axes])

        # diffusion restricted to (near-)diagonal sigma sigma^T in 2-d:
        # cross-derivative monotone stencils are out of scope
        diff = np.array([problem.operator.diffusion(x) for x in self.points_int])
        _require_finite("sigma sigma^T", diff, self.points_int)
        self.bdrift = np.array([problem.operator.b_at(x) for x in self.points_int])
        _require_finite("b", self.bdrift, self.points_int)
        if problem.N == 2:
            off = np.abs(diff[:, 0, 1])
            scale = 1.0 + np.abs(diff[:, 0, 0]) + np.abs(diff[:, 1, 1])
            bad = np.nonzero(off > 1e-10 * scale)[0]
            if bad.size:
                raise ValueError(
                    "2-d diffusion must be diagonal for a monotone axis-aligned "
                    f"stencil; offending node {self.points_int[bad[0]]} has "
                    f"sigma sigma^T off-diagonal {diff[bad[0], 0, 1]:.3g}"
                )
        self.D = [diff[:, ax, ax] for ax in range(problem.N)]
        # values(G) / slopes(G) of the gradient term at the interior nodes
        self.hamiltonian = on_grid(problem.hamiltonian, self.points_int)
        # H(x, 0) of a built-in shape is not finite exactly where its coefficients are not
        _require_finite("Hamiltonian coefficient",
                        self.hamiltonian.values(np.zeros_like(self.points_int)), self.points_int)

    # -- array plumbing ----------------------------------------------------

    def _interior(self, u: np.ndarray) -> np.ndarray:
        sl = tuple(slice(1, -1) for _ in self.shape)
        return u[sl]

    def _neighbor(self, u: np.ndarray, ax: int, step: int) -> np.ndarray:
        idx = [slice(1, -1)] * len(self.shape)
        idx[ax] = slice(2, None) if step > 0 else slice(None, -2)
        return u[tuple(idx)]

    def central_gradient(self, u: np.ndarray) -> np.ndarray:
        cols = [
            ((self._neighbor(u, ax, +1) - self._neighbor(u, ax, -1)) / (2.0 * self.h[ax])).ravel()
            for ax in range(self.problem.N)
        ]
        return np.column_stack(cols)

    def second_difference(self, u: np.ndarray, ax: int) -> np.ndarray:
        return (
            (self._neighbor(u, ax, +1) - 2.0 * self._interior(u) + self._neighbor(u, ax, -1))
            / self.h[ax] ** 2
        ).ravel()

    def upwind_drift(self, u: np.ndarray) -> np.ndarray:
        total = np.zeros(self.n_interior)
        for ax in range(self.problem.N):
            b = self.bdrift[:, ax]
            fwd = ((self._neighbor(u, ax, +1) - self._interior(u)) / self.h[ax]).ravel()
            bwd = ((self._interior(u) - self._neighbor(u, ax, -1)) / self.h[ax]).ravel()
            total += np.maximum(b, 0.0) * bwd + np.minimum(b, 0.0) * fwd
        return total

    def local_scheme(self, u: np.ndarray):
        """(slopes, lf) at u's central gradients, per node and axis: the
        slopes dH/dxi and the local Lax-Friedrichs dissipation 1.2 |dH/dxi|."""
        slopes = self.hamiltonian.slopes(self.central_gradient(u))
        return slopes, 1.2 * np.abs(slopes)

    def _linear_part(self, u: np.ndarray) -> np.ndarray:
        """lam u - diffusion + upwind drift on the interior."""
        val = self.problem.lam * self._interior(u).ravel()
        for ax in range(self.problem.N):
            val -= self.D[ax] * self.second_difference(u, ax)
        return val + self.upwind_drift(u)

    def linear_residual(self, u: np.ndarray, f_int: np.ndarray) -> np.ndarray:
        """Residual of the gradient-term-free part only (warm-start system)."""
        return f_int - self._linear_part(u)

    def residual(self, u: np.ndarray, f_int: np.ndarray, lf) -> np.ndarray:
        """f - S(u) on the interior (Newton right-hand side); lf per node
        and axis."""
        val = self._linear_part(u)
        grads = self.central_gradient(u)
        val += self.hamiltonian.values(grads)
        for ax in range(self.problem.N):
            val -= lf[:, ax] * (self.h[ax] / 2.0) * self.second_difference(u, ax)
        return f_int - val

    # -- linearized monotone system -----------------------------------------

    def assemble(self, slopes: np.ndarray, lf):
        """CSR matrix of the linearization; also reports monotone sign pattern."""
        N = self.problem.N
        lam = self.problem.lam
        diag = np.full(self.n_interior, lam)
        max_offdiag = 0.0
        nodes = np.arange(self.n_interior)
        idx = nodes.reshape(self.int_shape)
        # COO triplets: per axis the +1 and -1 neighbours, then the diagonal
        rows, cols, vals = [], [], []
        for ax in range(N):
            h = self.h[ax]
            Deff = self.D[ax] + lf[:, ax] * h / 2.0
            b = self.bdrift[:, ax]
            s = slopes[:, ax]
            diag += 2.0 * Deff / h**2 + np.abs(b) / h
            c_plus = -Deff / h**2 + np.minimum(b, 0.0) / h + s / (2.0 * h)
            c_minus = -Deff / h**2 - np.maximum(b, 0.0) / h - s / (2.0 * h)
            max_offdiag = max(max_offdiag, float(c_plus.max()), float(c_minus.max()))
            take = [slice(None)] * N
            take[ax] = slice(None, -1)
            src = idx[tuple(take)].ravel()
            take[ax] = slice(1, None)
            dst = idx[tuple(take)].ravel()
            rows += [src, dst]
            cols += [dst, src]
            vals += [c_plus[src], c_minus[dst]]
        A = sp.csr_matrix(
            (np.concatenate(vals + [diag]),
             (np.concatenate(rows + [nodes]), np.concatenate(cols + [nodes]))),
            shape=(self.n_interior, self.n_interior),
        )
        monotone = max_offdiag <= 1e-12 and float(diag.min()) > 0.0
        return A, monotone


def _require_finite(name: str, values: np.ndarray, points: np.ndarray) -> None:
    """Refuse non-finite data given per node (first axis), naming the first
    such node of points."""
    bad = ~np.isfinite(values.reshape(len(points), -1)).all(axis=1)
    if bad.any():
        raise ValueError(f"{name} is not finite at node {points[np.argmax(bad)]}")


def _boundary_values(disc: DiscreteOperator, boundary) -> np.ndarray:
    fn = boundary if callable(boundary) else (lambda x, v=float(boundary): v)
    u = np.zeros(disc.shape)
    on_boundary = np.ones(disc.shape, dtype=bool)
    on_boundary[tuple(slice(1, -1) for _ in disc.shape)] = False
    for idx in zip(*np.nonzero(on_boundary)):
        u[idx] = fn(np.array([ax[i] for ax, i in zip(disc.axes, idx)]))
    return u


def _field_on_interior(disc: DiscreteOperator, f) -> np.ndarray:
    return np.array([float(f(x)) for x in disc.points_int])


def solve(problem, box: Box, h: float, boundary, config: SchemeConfig | None = None):
    """Damped Newton / Howard iteration on the monotone scheme.

    boundary: callable x -> value or a constant.  Every iteration retunes
    the local Lax-Friedrichs dissipation lf = 1.2 |dH/dxi| per node and axis.
    Stops once the max-norm residual is at most config.tol_residual, or
    after MAX_ITERS iterations.  Returns (DiscreteField, SolveReport).
    """
    disc = DiscreteOperator(problem, box, h)
    f_int = _field_on_interior(disc, problem.f_at)
    return _solve(disc, _boundary_values(disc, boundary), f_int, config)


def _solve(disc: DiscreteOperator, u_boundary: np.ndarray, f_int: np.ndarray,
           config: SchemeConfig | None = None):
    """solve on a built operator: u_boundary is a grid array whose boundary
    nodes hold the Dirichlet data (it is not modified), f_int the interior
    right-hand side."""
    config = config or SchemeConfig()
    problem = disc.problem
    _require_finite("f", f_int, disc.points_int)
    _require_finite("boundary value", u_boundary, _mesh_points(disc.axes))

    u = u_boundary.copy()
    sl = tuple(slice(1, -1) for _ in disc.shape)
    u[sl] = (f_int / problem.lam).reshape(disc.int_shape)
    # warm start on the gradient-term-free linearization: brings the iterate
    # (and hence the gradient range seen by the lf tuning) to solution scale
    zero_slopes = np.zeros((disc.n_interior, problem.N))
    A0, _ = disc.assemble(zero_slopes, zero_slopes)
    u[sl] += spla.spsolve(A0, disc.linear_residual(u, f_int)).reshape(disc.int_shape)

    if config.damping is not None:
        damping = config.damping
    else:
        damping = 1.0 if problem.hamiltonian is None else 0.5
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")

    history = []
    monotone_all = True
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        slopes, lf = disc.local_scheme(u)
        r = disc.residual(u, f_int, lf)
        resnorm = float(np.abs(r).max())
        history.append(resnorm)
        if resnorm <= config.tol_residual:
            converged = True
            break
        A, monotone = disc.assemble(slopes, lf)
        monotone_all = monotone_all and monotone
        delta = spla.spsolve(A, r)
        u[sl] += damping * delta.reshape(disc.int_shape)

    field_out = DiscreteField(axes=disc.axes, values=u, h=disc.h)
    report = SolveReport(
        iterations=iterations,
        final_residual_norm=history[-1],
        monotonicity_certificate=monotone_all,
        converged=converged,
        lf_used=tuple(float(v) for v in lf.max(axis=0)),
        damping=damping,
        residual_history=tuple(history),
    )
    return field_out, report


# ---------------------------------------------------------------------------
# demonstrations


@dataclass
class ComparisonReport:
    ordered: bool
    min_gap: float
    witness: np.ndarray | None
    report_low: SolveReport
    report_high: SolveReport

    def to_json_dict(self) -> dict:
        return {
            "ordered": bool(self.ordered),
            "min_gap": float(self.min_gap),
            "witness": None if self.witness is None else [float(v) for v in np.atleast_1d(self.witness)],
            "report_low": self.report_low.to_json_dict(),
            "report_high": self.report_high.to_json_dict(),
        }


def comparison_check(problem, box: Box, h: float, f_low, f_high, boundary_low,
                     boundary_high) -> ComparisonReport:
    """Solve the ordered data pair and assert nodewise solution ordering.

    Preconditions f_low <= f_high and boundary_low <= boundary_high are
    validated nodewise on one grid operator, and both solves use the same
    operator and the validated data; a violation of the output ordering
    indicates a monotonicity breach and is reported with the witness node.
    """
    disc = DiscreteOperator(problem, box, h)
    fl = _field_on_interior(disc, f_low)
    fh = _field_on_interior(disc, f_high)
    if np.any(fl > fh + 1e-12):
        raise ValueError("f_low must be <= f_high nodewise")
    bl = _boundary_values(disc, boundary_low)
    bh = _boundary_values(disc, boundary_high)
    if np.any(bl > bh + 1e-12):
        raise ValueError("boundary_low must be <= boundary_high nodewise")
    sol_low, rep_low = _solve(disc, bl, fl)
    sol_high, rep_high = _solve(disc, bh, fh)
    gap = sol_high.values - sol_low.values
    min_gap = float(gap.min())
    ordered = min_gap >= -ORDER_TOL
    witness = None
    if not ordered:
        flat = int(np.argmin(gap))
        witness = sol_low.points()[flat]
    return ComparisonReport(ordered, min_gap, witness, rep_low, rep_high)


@dataclass
class PinningReport:
    gamma_points: np.ndarray
    target: float
    deviations: tuple        # per refinement level, max |u - f/lam| on Gamma nodes
    h_levels: tuple
    decreasing: bool
    hypothesis_checks: dict

    def to_json_dict(self) -> dict:
        return {
            "gamma_points": [[float(v) for v in np.atleast_1d(p)] for p in self.gamma_points],
            "target": float(self.target),
            "deviations": [float(d) for d in self.deviations],
            "h_levels": [float(h) for h in self.h_levels],
            "decreasing": bool(self.decreasing),
            "hypothesis_checks": {k: bool(v) for k, v in self.hypothesis_checks.items()},
        }


def gamma_pinning_check(problem, box: Box, h: float) -> PinningReport:
    """Refinement study of |u - f/lam| at the Hamiltonian's zero set, in 1-d.

    Solves with zero boundary data at the spacings 4h, 2h and h, each
    rounded by the grid to half_width/m; h_levels reports the rounded ones.
    The sign-split hypotheses (vanishing extremal data on Gamma and the
    local degeneracy bound) are checked first, on a probe of the box where
    a(x) must be finite.
    """
    if problem.N != 1:
        raise ValueError(f"gamma pinning is 1-d; got a problem of dimension {problem.N}")
    ham = problem.hamiltonian
    if ham is None or not hasattr(ham, "a"):
        raise ValueError("gamma pinning requires a signed scalar Hamiltonian")

    probe = np.linspace(box.center[0] - box.half_width[0],
                        box.center[0] + box.half_width[0], 401).reshape(-1, 1)
    gamma = compute_gamma(ham, probe)
    if not gamma.covers(len(probe)):
        raise ValueError("a(x) is not finite everywhere on the box: the sign split is undefined")
    checks = {}
    if len(gamma.gamma_points):
        a13 = check_A1_A3(problem.extremal, gamma, window_radius=box.half_width[0])
        a4 = check_A4(ham, gamma.gamma_points, r=0.5 * box.half_width[0],
                      C1_candidate=max(1.0, box.half_width[0]))
        checks = {"A1_A3": a13.passed, "A4": a4.passed}
        if not all(checks.values()):
            raise ValueError(f"sign-split hypotheses failed on the box: {checks}")
    devs, levels = [], []
    for lev in (4.0 * h, 2.0 * h, h):
        sol, _ = solve(problem, box, lev, 0.0)
        levels.append(sol.h[0])
        if not len(gamma.gamma_points):
            devs.append(0.0)
            continue
        worst = 0.0
        for x0 in gamma.gamma_points:
            i = int(np.argmin(np.abs(sol.axes[0] - float(np.atleast_1d(x0)[0]))))
            worst = max(worst, abs(float(sol.values[i]) - problem.f_at(x0) / problem.lam))
        devs.append(worst)
    target = problem.f_at(gamma.gamma_points[0]) / problem.lam if len(gamma.gamma_points) else 0.0
    decreasing = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    return PinningReport(
        gamma_points=gamma.gamma_points,
        target=float(target),
        deviations=tuple(devs),
        h_levels=tuple(levels),
        decreasing=decreasing,
        hypothesis_checks=checks,
    )


@dataclass
class NonuniquenessBranch:
    label: str
    sup_distance_to_trace: float
    max_abs_residual: float
    growth: growth_mod.GrowthReport
    in_uniqueness_class: bool
    solution: DiscreteField


@dataclass
class NonuniquenessReport:
    example_id: str
    branches: tuple
    sup_distance_between: float

    def to_json_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "sup_distance_between": float(self.sup_distance_between),
            "branches": [
                {
                    "label": b.label,
                    "sup_distance_to_trace": float(b.sup_distance_to_trace),
                    "max_abs_residual": float(b.max_abs_residual),
                    "in_uniqueness_class": bool(b.in_uniqueness_class),
                    "in_S": bool(b.growth.in_S),
                    "in_SG": bool(b.growth.in_SG),
                    "liminf_plus": float(b.growth.liminf_plus),
                    "liminf_minus": float(b.growth.liminf_minus),
                }
                for b in self.branches
            ],
        }


def nonuniqueness_demo(example_id: str, box: Box, h: float, lam: float = 1.0,
                       t: float = -1.0) -> NonuniquenessReport:
    """Solve with the boundary traces of both closed-form solutions, on one
    grid operator.

    Each branch converges to its trace's solution; growth classification of
    the closed forms shows exactly one branch lies in the uniqueness class
    (vanishing order-q' relative growth).
    """
    problem, cands = closed_forms(example_id, lam, t)
    disc = DiscreteOperator(problem, box, h)
    f_int = _field_on_interior(disc, problem.f_at)
    branches = []
    solutions = []
    cert_grid = np.linspace(-10.0, 10.0, 801)
    for cand in cands:
        sol, _ = _solve(disc, _boundary_values(disc, lambda x, c=cand: c.val(x)), f_int)
        exact = np.array([cand.val(x) for x in sol.points()]).reshape(sol.values.shape)
        rep = verify_solution(problem, cand, cert_grid)
        grep = growth_mod.classify_growth(lambda x, c=cand: c.val(x), problem.q_prime,
                                          dim=problem.N)
        branches.append(NonuniquenessBranch(
            label=cand.label,
            sup_distance_to_trace=float(np.abs(sol.values - exact).max()),
            max_abs_residual=rep.max_abs_residual,
            growth=grep,
            in_uniqueness_class=grep.in_S,
            solution=sol,
        ))
        solutions.append(sol.values)
    return NonuniquenessReport(
        example_id=example_id,
        branches=tuple(branches),
        sup_distance_between=float(np.abs(solutions[0] - solutions[1]).max()),
    )

