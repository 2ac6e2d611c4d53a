"""Hamiltonian forms and sampled hypothesis checkers.

Four gradient-term shapes are supported: the convex power form
<A(x) xi, xi>^(q/2), the scalar signed form a(x)|xi|^q (whose zero set
Gamma drives the sign-split comparison route), a pointwise minimum of
convex forms, and the inf-sup game form min_beta max_alpha of
|sigma^T xi|^2 - |tau^T xi|^2 over finite index sets.  Each shape's value
and slope are written once, in its grid evaluator (on_grid), which takes
the coefficient fields at a node set and one gradient per node; the
pointwise H(x, xi) and H.slope(x, xi) are that evaluator at the one node x.

The check_* functions sample a stated inequality and report the worst
violation with a witness; violations are report content, not exceptions.
A passing report means "consistent with the hypothesis on the samples",
never a certificate.  One rule, worst_case, picks every worst sample:
the first NaN wins (a sample that cannot be evaluated fails the check and
is its witness), else the most extreme value, ties to the lowest index; a
binned modulus table (H4, F1) fails on any NaN sample.  Tolerances are
module constants: CHECK_TOL (H1, H2, H4, H2', A4), HOMOGENEITY_TOL (H3),
GAMMA_REL_TOL (compute_gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import _row_dots, _scalar_pow, as_point, as_points

FD_STEP = 1e-6      # relative central-difference step of hamiltonian_slope
MODULUS_BINS = 8    # distance bins of the H4 and F1 modulus tables
A4_RADII, A4_MIN_RADIUS = 12, 1e-3  # check_A4: geometric radii from A4_MIN_RADIUS to r
CHECK_TOL = 1e-9          # slack allowed in a sampled inequality
HOMOGENEITY_TOL = 1e-12   # scale-aware deviation allowed by the homogeneity checks
GAMMA_REL_TOL = 1e-10     # compute_gamma: |a| <= GAMMA_REL_TOL (1 + max finite |a|) is Gamma


class HamiltonianDomainError(ValueError):
    """Raised when <A(x) xi, xi> < 0 meets a non-integer power q/2."""


def _coeff(value, x):
    return value(x) if callable(value) else value


def _point_value(H, x, xi) -> float:
    """H(x, xi): the grid evaluation of H at the one node x."""
    return float(H.on_grid(as_point(x)[None]).values(as_point(xi)[None])[0])


def _point_slope(H, x, xi) -> np.ndarray:
    """d/dxi H(x, xi): the grid slope of H at the one node x."""
    return H.on_grid(as_point(x)[None]).slopes(as_point(xi)[None])[0]


@dataclass(frozen=True)
class PowerHamiltonian:
    """H(x, xi) = <A(x) xi, xi>^(q/2) with symmetric A and q > 1."""

    A: object  # (N,N) array or callable x -> (N,N) array
    q: float
    __call__, slope = _point_value, _point_slope

    def on_grid(self, points) -> "PowerGrid":
        return PowerGrid(self, points)


@dataclass(frozen=True)
class SignedScalarHamiltonian:
    """H(x, xi) = a(x) |xi|^q; sign in xi follows the sign of a(x)."""

    a: object  # scalar or callable x -> scalar
    q: float
    __call__, slope = _point_value, _point_slope

    def on_grid(self, points) -> "SignedGrid":
        return SignedGrid(self, points)


@dataclass(frozen=True)
class MinConvexHamiltonian:
    """H = min_k H_k over convex components sharing the structural q; the
    slope is that of the minimizing component, ties to the lowest index."""

    components: tuple
    q: float
    __call__, slope = _point_value, _point_slope

    def on_grid(self, points) -> "MinConvexGrid":
        return MinConvexGrid(self, points)


@dataclass(frozen=True)
class GameHamiltonian:
    """Inf-sup game form over finite index sets.

    H(x, xi) = min over beta_set of max over alpha_set of
    |sigma(x,a,b)^T xi|^2 - |tau(x,a,b)^T xi|^2.  Only S = sigma sigma^T and
    T = tau tau^T enter; q = 2 structurally.  min/max ties break to the
    lowest index.
    """

    alpha_set: tuple
    beta_set: tuple
    sigma: object  # callable (x, alpha, beta) -> (N, n) array
    tau: object
    q: float = field(default=2.0, init=False)
    __call__, slope = _point_value, _point_slope

    def __post_init__(self):
        if not self.alpha_set or not self.beta_set:
            raise ValueError("index sets must be nonempty")

    def S(self, x, alpha, beta) -> np.ndarray:
        s = np.atleast_2d(np.asarray(self.sigma(as_point(x), alpha, beta), dtype=float))
        return s @ s.T

    def T(self, x, alpha, beta) -> np.ndarray:
        t = np.atleast_2d(np.asarray(self.tau(as_point(x), alpha, beta), dtype=float))
        return t @ t.T

    def on_grid(self, points) -> "GameGrid":
        return GameGrid(self, points)


def hamiltonian_slope(H, x, xi) -> np.ndarray:
    """d/dxi H(x, xi), analytic for the built-in forms, central FD otherwise."""
    if hasattr(H, "slope"):
        return H.slope(x, xi)
    xi = as_point(xi)
    out = np.empty_like(xi)
    step = FD_STEP * (1.0 + float(np.linalg.norm(xi)))
    for i in range(xi.size):
        e = np.zeros_like(xi)
        e[i] = step
        out[i] = (float(H(x, xi + e)) - float(H(x, xi - e))) / (2.0 * step)
    return out


# ---------------------------------------------------------------------------
# whole-array evaluation on a fixed node set: the one formula of each shape
#
# A grid evaluator is built once per node set (shape (n, N)): it evaluates
# the coefficient fields there, and its values(G) / slopes(G) take one
# gradient per node (G has shape (n, N)).  These are the only value and
# slope formulas of the built-in shapes; the pointwise H(x, xi) and
# H.slope(x, xi) build the evaluator at the one node x.  The stacked
# products use the per-node BLAS kernels and powers go through the scalar
# float pow (numpy's array power can differ in the last bit), so a node's
# entry does not depend on the other nodes of the set.


def on_grid(H, points):
    """Grid evaluator of H at the nodes `points` (shape (n, N)).

    Built-in forms evaluate their coefficients once here; any other
    Hamiltonian is evaluated node by node, and H = None is the zero term.
    """
    points = np.asarray(points, dtype=float)
    if H is None:
        return ZeroGrid(len(points))
    if hasattr(H, "on_grid"):
        return H.on_grid(points)
    return NodewiseGrid(H, points)


def _quadratic_forms(M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per-node quadratic forms <M_i g_i, g_i> for a stack M of (N, N)."""
    return (G[:, None, :] @ M @ G[:, :, None])[:, 0, 0]


class ZeroGrid:
    """No gradient term."""

    def __init__(self, n: int):
        self.n = n

    def values(self, G):
        return np.zeros(self.n)

    def slopes(self, G):
        return np.zeros_like(G)


class NodewiseGrid:
    """Fallback for Hamiltonians without a grid form: one call per node."""

    def __init__(self, H, points):
        self.H = H
        self.points = points

    def values(self, G):
        return np.array([self.H(x, g) for x, g in zip(self.points, G)])

    def slopes(self, G):
        return np.array([hamiltonian_slope(self.H, x, g) for x, g in zip(self.points, G)])


class PowerGrid:
    """<A xi, xi>^(q/2) with the (n, N, N) stack of A(x) at the nodes; its
    slope q <A xi, xi>^(q/2 - 1) A xi is 0 at xi = 0."""

    def __init__(self, H: PowerHamiltonian, points):
        self.q = H.q
        self.points = points
        self.A = np.array([np.asarray(_coeff(H.A, x), dtype=float) for x in points])

    def values(self, G):
        s = _quadratic_forms(self.A, G)
        half_q = 0.5 * self.q
        if abs(half_q - round(half_q)) > 1e-12:
            bad = np.flatnonzero(s < 0)
            if bad.size:
                i = int(bad[0])
                raise HamiltonianDomainError(
                    f"<A(x)xi, xi> = {float(s[i])} < 0 at x = {self.points[i]} with non-integer "
                    f"q/2 = {half_q}; A(x) is not positive semidefinite there")
        return np.array([-(abs(v) ** half_q) if v < 0 else v**half_q for v in s.tolist()])

    def slopes(self, G):
        q = self.q
        s = _quadratic_forms(self.A, G)
        zero = (s <= 0) & ((q < 2) | (s == 0))
        coef = q * _scalar_pow(np.where(zero, 1.0, s), 0.5 * q - 1.0)
        Axi = (self.A @ G[:, :, None])[:, :, 0]
        return np.where(zero[:, None], 0.0, coef[:, None] * Axi)


class SignedGrid:
    """a |xi|^q with the (n,) vector of a(x) at the nodes."""

    def __init__(self, H: SignedScalarHamiltonian, points):
        self.q = H.q
        self.a = np.array([float(_coeff(H.a, x)) for x in points])

    def values(self, G):
        return self.a * _scalar_pow(np.sqrt(_row_dots(G)), self.q)

    def slopes(self, G):
        n = np.sqrt(_row_dots(G))
        zero = n == 0.0
        p = _scalar_pow(np.where(zero, 1.0, n), self.q - 2.0)
        return np.where(zero[:, None], 0.0, (self.a * self.q * p)[:, None] * G)


class MinConvexGrid:
    """min_k H_k: component evaluators stacked, reduced with argmin (lowest
    index on ties)."""

    def __init__(self, H: MinConvexHamiltonian, points):
        self.parts = [on_grid(Hk, points) for Hk in H.components]

    def _argmin(self, G):
        V = np.array([part.values(G) for part in self.parts], dtype=float)
        return V, np.argmin(V, axis=0)

    def values(self, G):
        V, k = self._argmin(G)
        return V[k, np.arange(V.shape[1])]

    def slopes(self, G):
        V, k = self._argmin(G)
        S = np.array([part.slopes(G) for part in self.parts])
        return S[k, np.arange(V.shape[1])]


class GameGrid:
    """min over beta of max over alpha, with the sigma and tau stacks over
    alpha_set x beta_set at the nodes.  argmax over alpha then argmin over
    beta is the Howard policy (lowest index on ties)."""

    def __init__(self, H: GameHamiltonian, points):
        def stack(fn):
            return np.array([[[np.asarray(fn(x, a, b), dtype=float)
                               for b in H.beta_set] for a in H.alpha_set]
                             for x in points])

        self.sigma = stack(H.sigma)  # (n, |alpha|, |beta|, N, m)
        self.tau = stack(H.tau)
        S = self.sigma @ np.swapaxes(self.sigma, -1, -2)
        T = self.tau @ np.swapaxes(self.tau, -1, -2)
        self.M = 2.0 * (S - T)  # d/dxi of each term is M xi

    def _policy(self, G):
        g = G[:, None, None, :, None]
        sx = np.swapaxes(self.sigma, -1, -2) @ g
        tx = np.swapaxes(self.tau, -1, -2) @ g
        terms = (np.swapaxes(sx, -1, -2) @ sx - np.swapaxes(tx, -1, -2) @ tx)[..., 0, 0]
        ia = np.argmax(terms, axis=1)  # best alpha per (node, beta)
        best = np.take_along_axis(terms, ia[:, None, :], axis=1)[:, 0, :]
        ib = np.argmin(best, axis=1)
        nodes = np.arange(len(G))
        return best[nodes, ib], ia[nodes, ib], ib

    def values(self, G):
        return self._policy(G)[0]

    def slopes(self, G):
        _, ia, ib = self._policy(G)
        M = self.M[np.arange(len(G)), ia, ib]
        return (M @ G[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst: float
    witness: object = None
    notes: str = ""
    extra: dict = field(default_factory=dict)


def worst_case(values, start: float, *, larger: bool):
    """(worst, index) of sampled values: the first NaN, else the first value
    strictly beyond start and every earlier value (larger, or smaller when
    not larger: ties go to the lowest index); (start, None) if none is."""
    v = np.asarray(values, dtype=float)
    nan = np.isnan(v)
    if nan.any():
        i = int(np.argmax(nan))
        return float(v[i]), i
    if not v.size:
        return start, None
    i = int(np.argmax(v) if larger else np.argmin(v))
    beyond = v[i] > start if larger else v[i] < start
    return (float(v[i]), i) if beyond else (start, None)


@dataclass(frozen=True)
class ModulusReport:
    """Empirical modulus table: per-|x-y|-bin suprema of a normalized gap."""

    name: str
    bin_edges: tuple[float, ...]
    values: tuple[float, ...]  # nan for empty bins
    passed: bool
    notes: str = ""
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GammaPartition:
    """Sampled split of a grid by the sign of the signed coefficient a;
    sign holds, per grid point in grid order, 1 (Omega+), -1 (Omega-), 0
    (Gamma) or nan (a not finite)."""

    gamma_points: np.ndarray
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    tol: float
    sign: np.ndarray

    def covers(self, n_points: int) -> bool:
        return len(self.gamma_points) + len(self.omega_plus) + len(self.omega_minus) == n_points


def _grid_values(H, cases) -> np.ndarray:
    """H at each (x, xi) of cases, in order, from one grid."""
    pts, G = (np.array([as_point(c[k]) for c in cases]) for k in (0, 1))
    return on_grid(H, pts).values(G) if cases else np.zeros(0)


def check_H1_convexity(H, x_samples, xi_pairs, t_samples) -> CheckReport:
    """Sample H(x, t xi1 + (1-t) xi2) <= t H(x,xi1) + (1-t) H(x,xi2) + CHECK_TOL."""
    for t in t_samples:
        if not 0.0 < t < 1.0:
            raise ValueError(f"t samples must lie in (0,1), got {t}")
    t = np.array(t_samples, dtype=float)
    evaluated, cases = [], []
    for x in x_samples:  # per x and pair: H at xi1, xi2, then at each mix
        for xi1, xi2 in xi_pairs:
            xi1, xi2 = as_point(xi1), as_point(xi2)
            evaluated += [(x, xi) for xi in (xi1, xi2, *(ti * xi1 + (1.0 - ti) * xi2 for ti in t))]
            cases += [(np.asarray(x), xi1, xi2, ti) for ti in t_samples]
    v = _grid_values(H, evaluated).reshape(-1, 2 + len(t))
    worst, i = worst_case((v[:, 2:] - (t * v[:, :1] + (1.0 - t) * v[:, 1:2])).ravel(), -np.inf,
                          larger=True)
    return CheckReport("H1 convexity", worst <= CHECK_TOL, worst, None if i is None else cases[i])


def check_H2_bounds(H, delta, C0: float, samples) -> CheckReport:
    """Sample delta(x)|xi|^q <= H(x,xi) <= C0 |xi|^q; report the worst slack."""
    d, cases = [], []
    for x, xi in samples:
        d.append(float(_coeff(delta, as_point(x))))
        if not d[-1] > 0:
            raise ValueError(f"delta must be positive on samples, got {d[-1]} at x={x}")
        cases += [(np.asarray(x), as_point(xi), "lower"), (np.asarray(x), as_point(xi), "upper")]
    v = _grid_values(H, cases[::2])
    nq = np.array([float(np.linalg.norm(xi)) ** H.q for _, xi, _ in cases[::2]])
    worst, i = worst_case(np.column_stack([v - np.array(d) * nq, C0 * nq - v]).ravel(), np.inf,
                          larger=False)
    return CheckReport("H2 bounds", worst >= -CHECK_TOL, worst, None if i is None else cases[i])


def sampled_homogeneity(name: str, evaluate, cases, thetas, power: float) -> CheckReport:
    """Sample evaluate(case, theta) = theta^power evaluate(case, 1) with a
    scale-aware deviation; the witness is (*case, theta)."""
    devs, witnesses = [], []
    for case in cases:
        base = evaluate(case, 1.0)
        for theta in thetas:
            if theta < 0:
                raise ValueError(f"theta must be >= 0, got {theta}")
            target = theta**power * base
            devs.append(abs(evaluate(case, theta) - target) / max(1.0, abs(target)))
            witnesses.append((*case, theta))
    worst, i = worst_case(devs, 0.0, larger=True)
    return CheckReport(name, worst <= HOMOGENEITY_TOL, worst, None if i is None else witnesses[i])


def check_H3_homogeneity(H, samples, thetas) -> CheckReport:
    """Sample H(x, theta xi) = theta^q H(x, xi); scale-aware deviation."""
    cases = [(x, as_point(xi)) for x, xi in samples]
    return sampled_homogeneity("H3 homogeneity", lambda c, t: float(H(c[0], t * c[1])),
                               cases, thetas, H.q)


def binned_max(dists, values):
    """Split [0, max dist] into MODULUS_BINS equal bins (the first closed at
    0) and take the largest value in each; nan marks an empty bin.  Returns
    (edges, table)."""
    dists, values = np.asarray(dists), np.asarray(values)
    edges = np.linspace(0.0, max(dists.max(), 1e-300), MODULUS_BINS + 1)
    table = np.full(MODULUS_BINS, np.nan)
    for i in range(MODULUS_BINS):
        mask = (dists > edges[i]) & (dists <= edges[i + 1]) if i else (dists <= edges[1])
        if mask.any():
            table[i] = values[mask].max()
    return edges, table


def check_H4_modulus(H, R: float, pair_samples) -> ModulusReport:
    """Tabulate sup |H(x,xi)-H(y,xi)| / |xi|^q against |x-y| bins inside B_R.

    Passes when no ratio is NaN, the table is nonincreasing toward small
    separations (within CHECK_TOL) and the smallest-bin value has decayed to
    at most half the largest; an estimate of continuity, not a certificate.
    """
    cases, dists, nq = [], [], []
    for x, y, xi in pair_samples:
        x, y, xi = as_point(x), as_point(y), as_point(xi)
        if np.linalg.norm(x) > R + 1e-12 or np.linalg.norm(y) > R + 1e-12:
            raise ValueError("pair samples must lie in B_R")
        n = float(np.linalg.norm(xi))
        if n == 0.0:
            raise ValueError("xi samples must be nonzero")
        dists.append(float(np.linalg.norm(x - y)))
        nq.append(n**H.q)
        cases += [(x, xi), (y, xi)]
    v = _grid_values(H, cases)
    ratios = np.abs(v[0::2] - v[1::2]) / np.array(nq)
    edges, values = binned_max(dists, ratios)
    filled = [v for v in values if not np.isnan(v)]
    monotone = all(a <= b + CHECK_TOL for a, b in zip(filled, filled[1:]))
    decays = (not filled) or filled[0] <= 0.5 * filled[-1] + CHECK_TOL
    return ModulusReport("H4 modulus", tuple(edges), tuple(values),
                         not np.isnan(ratios).any() and monotone and decays,
                         notes="empirical binned modulus; consistent-with check only")


def check_H2prime(game: GameHamiltonian, delta, C0: float, x_samples) -> CheckReport:
    """Game-form positivity/boundedness: per x and beta an alpha with
    S - T >= delta(x) I, and per x a beta with sup_alpha |S| <= C0.

    Witnesses are the lowest passing indices.
    """
    alpha_witnesses, beta_witnesses, failures = {}, {}, []
    worst = np.inf
    for ix, x in enumerate(x_samples):
        d = float(_coeff(delta, as_point(x)))
        for ib, beta in enumerate(game.beta_set):
            margin_best = -np.inf
            for ia, alpha in enumerate(game.alpha_set):
                gap = game.S(x, alpha, beta) - game.T(x, alpha, beta)
                margin = float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min()) - d
                margin_best = max(margin_best, margin)
                if margin >= -CHECK_TOL:
                    alpha_witnesses[(ix, ib)] = ia
                    break
            else:
                failures.append(("(ii)", ix, ib, margin_best))
            worst = min(worst, margin_best)
        bound_best = np.inf
        for ib, beta in enumerate(game.beta_set):
            sup_norm = max(
                float(np.abs(np.linalg.eigvalsh(game.S(x, alpha, beta))).max())
                for alpha in game.alpha_set
            )
            bound_best = min(bound_best, sup_norm)
            if sup_norm <= C0 + CHECK_TOL:
                beta_witnesses[ix] = ib
                break
        else:
            failures.append(("(iii)", ix, None, bound_best))
    return CheckReport(
        "H2' game positivity",
        not failures,
        worst,
        witness=failures[0] if failures else None,
        extra={"alpha_witnesses": alpha_witnesses, "beta_witnesses": beta_witnesses},
    )


def compute_gamma(signed: SignedScalarHamiltonian, grid) -> GammaPartition:
    """Partition grid points by the sign of a(x); |a| <= tol goes to Gamma,
    with tol = GAMMA_REL_TOL (1 + max |a|) over the finite values of a.  A
    point where a is not finite is in no part, so the partition does not
    cover the grid.

    grid is an (M, N) point array, or a flat array of 1-d points.
    """
    pts = as_points(grid)
    if pts.size == 0:
        raise ValueError("grid must be nonempty")
    avals = SignedGrid(signed, pts).a
    finite = np.isfinite(avals)
    tol = GAMMA_REL_TOL * (1.0 + float(np.abs(avals[finite]).max(initial=0.0)))
    sign = np.where(finite, np.where(np.abs(avals) <= tol, 0.0, np.sign(avals)), np.nan)
    return GammaPartition(pts[sign == 0], pts[sign > 0], pts[sign < 0], tol, sign)


def check_A4(H, gamma_points, r: float, C1_candidate: float) -> CheckReport:
    """Sample |H(x, xi)| <= C1 |x - x0|^q |xi|^q for x in B_r(x0), x0 in Gamma.

    Reports the smallest feasible C1 found on the samples; fails when it
    exceeds the candidate (e.g. when |H| decays slower than |x-x0|^q).
    gamma_points is shaped like compute_gamma's grid.
    """
    q = H.q
    pts = as_points(gamma_points)
    from .growth import shell_directions

    dirs = shell_directions(pts.shape[1], 16)
    radii = np.geomspace(A4_MIN_RADIUS, r, A4_RADII)
    xi_samples = [d * m for d in dirs for m in (1.0, 3.0)]
    scale, cases = [], []
    for x0 in pts:
        for rad in radii:
            for d in dirs:
                x = x0 + rad * d
                for xi in xi_samples:
                    scale.append(rad**q * float(np.linalg.norm(xi)) ** q)
                    cases.append((x, xi))
    ratios = np.abs(_grid_values(H, cases)) / np.array(scale)
    worst_C1, i = worst_case(ratios, 0.0, larger=True)
    return CheckReport("A4 degeneracy on Gamma", worst_C1 <= C1_candidate * (1.0 + 1e-9) + CHECK_TOL,
                       worst_C1, None if i is None else cases[i],
                       notes=f"smallest feasible C1 on samples: {worst_C1:.6g}",
                       extra={"C1_required": worst_C1})


def estimate_delta(H, x_samples) -> float:
    """Window estimate of the lower-bound coefficient delta for (H2).

    For the power form: the smallest eigenvalue of A(x) over the samples.
    For the signed form: the minimum of a(x).
    """
    if isinstance(H, PowerHamiltonian):
        return float(np.linalg.eigvalsh(H.on_grid(as_points(x_samples)).A).min())
    if isinstance(H, SignedScalarHamiltonian):
        return float(H.on_grid(as_points(x_samples)).a.min())
    raise ValueError(f"no delta estimator for {type(H).__name__}")


def estimate_C0(H, x_samples) -> float:
    """Window estimate of the upper-bound coefficient C0 for (H2)."""
    if isinstance(H, PowerHamiltonian):
        return float(np.linalg.eigvalsh(H.on_grid(as_points(x_samples)).A).max())
    if isinstance(H, SignedScalarHamiltonian):
        return float(np.abs(H.on_grid(as_points(x_samples)).a).max())
    if isinstance(H, MinConvexHamiltonian):
        return max(estimate_C0(Hk, x_samples) for Hk in H.components)
    if isinstance(H, GameHamiltonian):
        return max(
            float(np.abs(np.linalg.eigvalsh(H.S(x, a, b))).max())
            for x in x_samples
            for a in H.alpha_set
            for b in H.beta_set
        )
    raise ValueError(f"no C0 estimator for {type(H).__name__}")
