"""Second-order drift-diffusion operators and their extremal bounds.

F(x, xi, X) = -Tr(sigma sigma^T X) + <b, xi> is the model operator; its
extremal companion P(x, X) = -Tr(sigma0 sigma0^T X) together with the drift
bound b0(x)|xi| controls differences of F in the comparison argument.  The
check_* functions sample the structural hypotheses (degenerate ellipticity,
coefficient growth, Gamma degeneracy, the structure-condition consequence)
and report worst cases with witnesses, by the rule of hamiltonians.worst_case
(a NaN sample wins and fails the check).  Tolerances, sample counts and seeds
are module constants: CHECK_TOL (ellipticity), HOMOGENEITY_TOL (F2),
STRUCTURE_TOL (A1, F1), GROWTH_TOL (F3/F4), and the counts and seeds below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import growth
from .fields import as_point
from .hamiltonians import (CHECK_TOL, CheckReport, ModulusReport, binned_max,
                           sampled_homogeneity, worst_case)

ELLIPTICITY_SAMPLES, ELLIPTICITY_SEED = 500, 0  # random cases of check_degenerate_ellipticity
LIPSCHITZ_PAIRS, LIPSCHITZ_SEED = 200, 1        # check_A1_A3: point pairs for the A3 quotients
F1_PAIRS, F1_SEED = 240, 2                      # check_F1_standard_form: random pairs x, y
F1_EPS_VALUES = (0.5, 0.1, 0.02)  # the eps each of those pairs draws from
STRUCTURE_TOL = 1e-8  # A1 vanishing on Gamma and the F1 bound
# growth-class tolerance of the hypothesis checks: bounded coefficients sit at
# -1e-4 at radius 1e4, linear-growth ones at O(1)
GROWTH_TOL = 0.02


def _coeff_array(valuer, x, ndmin: int) -> np.ndarray:
    """A constant or callable coefficient at x, as a float array of ndmin dims."""
    return np.array(valuer(x) if callable(valuer) else valuer, dtype=float, ndmin=ndmin)


def spectral_norm(M: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix via eigendecomposition."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T))).max())


@dataclass(frozen=True)
class DriftDiffusionOperator:
    """F(x, xi, X) = -Tr(sigma(x) sigma(x)^T X) + <b(x), xi>.

    Linear in (xi, X) jointly, hence positively one-homogeneous by
    construction.
    """

    sigma: object  # (N,N) array or callable x -> (N,N) symmetric
    b: object      # (N,) array or callable x -> (N,)
    N: int

    def sigma_at(self, x) -> np.ndarray:
        return _coeff_array(self.sigma, as_point(x, self.N), 2)

    def b_at(self, x) -> np.ndarray:
        return _coeff_array(self.b, as_point(x, self.N), 1)

    def diffusion(self, x) -> np.ndarray:
        s = self.sigma_at(x)
        return s @ s.T

    def __call__(self, x, xi, X) -> float:
        xi = as_point(xi, self.N)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape != (self.N, self.N):
            raise ValueError(f"Hessian argument has shape {X.shape}, expected ({self.N},{self.N})")
        return float(-np.trace(self.diffusion(x) @ X) + self.b_at(x) @ xi)


@dataclass(frozen=True)
class ExtremalOperator:
    """P(x, X) = -Tr(sigma0 sigma0^T X) plus the drift bound b0(x)|xi|."""

    sigma0: object  # matrix field
    b0: object      # nonnegative scalar field
    N: int

    def sigma0_at(self, x) -> np.ndarray:
        return _coeff_array(self.sigma0, as_point(x, self.N), 2)

    def sigma0_norm(self, x) -> float:
        return spectral_norm(self.sigma0_at(x))

    def b0_at(self, x) -> float:
        v = self.b0(as_point(x, self.N)) if callable(self.b0) else self.b0
        return float(v)

    def P(self, x, X) -> float:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape != (self.N, self.N):
            raise ValueError(f"Hessian argument has shape {X.shape}, expected ({self.N},{self.N})")
        s0 = self.sigma0_at(x)
        return float(-np.trace(s0 @ s0.T @ X))


def canonical_extremal(op: DriftDiffusionOperator) -> ExtremalOperator:
    """Tightest admissible extremal data for the model form: sigma0 = sigma,
    b0 = |b|."""
    return ExtremalOperator(
        sigma0=lambda x: op.sigma_at(x),
        b0=lambda x: float(np.linalg.norm(op.b_at(x))),
        N=op.N,
    )


def check_F2_homogeneity(F, samples, thetas) -> CheckReport:
    """Positive one-homogeneity in (xi, X) for any F(x, xi, X) evaluator.

    This is the only sampling check available for general (non-model-form)
    operators; all other F-hypotheses need the drift-diffusion structure.
    """
    cases = [(x, np.atleast_1d(np.asarray(xi, dtype=float)), np.atleast_2d(np.asarray(X, dtype=float)))
             for x, xi, X in samples]
    return sampled_homogeneity("F2 homogeneity", lambda c, t: float(F(c[0], t * c[1], t * c[2])),
                               cases, thetas, 1)


def check_degenerate_ellipticity(op: DriftDiffusionOperator) -> CheckReport:
    """Sample F(x, xi, X) <= F(x, xi, Y) + CHECK_TOL for X = Y + (psd increment)."""
    rng = np.random.default_rng(ELLIPTICITY_SEED)
    gaps, cases = [], []
    for _ in range(ELLIPTICITY_SAMPLES):
        x = rng.uniform(-3, 3, op.N)
        xi = rng.uniform(-3, 3, op.N)
        Y = rng.standard_normal((op.N, op.N))
        Y = 0.5 * (Y + Y.T)
        G = rng.standard_normal((op.N, op.N))
        gaps.append(op(x, xi, Y + G @ G.T) - op(x, xi, Y))
        cases.append((x, xi))
    worst, i = worst_case(gaps, -np.inf, larger=True)
    return CheckReport("degenerate ellipticity", worst <= CHECK_TOL, worst,
                       None if i is None else cases[i])


@dataclass(frozen=True)
class F3F4Report:
    """Order-1 growth of |sigma0| and b0: strict is both in S_1, relaxed both in SG_1."""

    sigma0_report: growth.GrowthReport
    b0_report: growth.GrowthReport
    strict: bool
    relaxed: bool


def check_F3_F4_growth(ext: ExtremalOperator, radii=None) -> F3F4Report:
    """Classify |sigma0| and b0 with growth order 1 and tolerance GROWTH_TOL."""
    rep_s, rep_b = (growth.classify_growth(h, 1.0, radii=radii, tol=GROWTH_TOL, dim=ext.N)
                    for h in (ext.sigma0_norm, ext.b0_at))
    return F3F4Report(rep_s, rep_b, rep_s.in_S and rep_b.in_S, rep_s.in_SG and rep_b.in_SG)


@dataclass(frozen=True)
class GrowthHypotheses:
    """The growth reports the comparison theorems read, from one sample."""

    coeffs: F3F4Report
    f: growth.GrowthReport

    def failure(self, relaxed: bool) -> str | None:
        """The first class the strict rule (|sigma0|, b0 in S_1, f in
        S_{q'}^+) or the relaxed rule (SG_1, SG_{q'}^+) misses, coefficients
        first; None when the rule holds."""
        if not (self.coeffs.relaxed if relaxed else self.coeffs.strict):
            kind = "bounded class SG_1" if relaxed else "vanishing class S_1"
            return f"|sigma0| or b0 not estimated in the order-1 {kind} on the window"
        if not (self.f.in_SG_plus if relaxed else self.f.in_S_plus):
            return f"f not estimated in {'SG' if relaxed else 'S'}_{{q'}}^+ on the window"
        return None


def growth_hypotheses(problem, radii) -> GrowthHypotheses:
    """Classify f with order q' and the extremal data with order 1, at
    GROWTH_TOL on the radii (None: growth.DEFAULT_RADII)."""
    f = growth.classify_growth(problem.f_at, problem.q_prime, radii=radii, tol=GROWTH_TOL,
                               dim=problem.N)
    return GrowthHypotheses(check_F3_F4_growth(problem.extremal, radii=radii), f)


def check_A1_A3(ext: ExtremalOperator, gamma, window_radius: float = 1.0) -> CheckReport:
    """Vanishing of sigma0, b0 on Gamma plus sampled difference quotients.

    A1: |sigma0(x0)| and |b0(x0)| <= STRUCTURE_TOL at every Gamma point.  A3:
    local Lipschitz constants of sigma0 (Frobenius) and b0 estimated on the
    window.
    """
    pts = [np.asarray(x0) for x0 in np.atleast_2d(gamma.gamma_points) if x0.size]
    values = [v for x0 in pts for v in (ext.sigma0_norm(x0), abs(ext.b0_at(x0)))]
    worst, i = worst_case(values, 0.0, larger=True)
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    pairs = [(rng.uniform(-window_radius, window_radius, ext.N),
              rng.uniform(-window_radius, window_radius, ext.N)) for _ in range(LIPSCHITZ_PAIRS)]
    lip_s, lip_b = _lipschitz(pairs, ext.sigma0_at, ext.b0_at)
    return CheckReport(
        "A1/A3 Gamma degeneracy + local Lipschitz",
        worst <= STRUCTURE_TOL,
        worst,
        None if i is None else pts[i // 2],
        notes="A1 vanishing checked on Gamma; A3 reported as sampled difference quotients",
        extra={"lipschitz_sigma0": lip_s, "lipschitz_b0": lip_b},
    )


def _lipschitz(pairs, *fields):
    """Per field g, the largest sampled norm of g(x) - g(y) over |x - y|, by
    worst_case from 0; pairs closer than 1e-12 are skipped."""
    pairs = [(x, y, d) for x, y in pairs if (d := float(np.linalg.norm(x - y))) >= 1e-12]
    return [worst_case([float(np.linalg.norm(g(x) - g(y))) / d for x, y, d in pairs],
                       0.0, larger=True)[0] for g in fields]


def _admissible_blocks(rng, N: int, eps: float):
    """Matrix pairs X <= Y satisfying the doubling block inequality.

    X = M - sI, Y = M + sI with s = eps ||M||^2 / 3 and ||M|| <= 0.6 * 3/eps
    satisfy -3/eps I <= diag(X, -Y) <= 3/eps [[I,-I],[-I,I]] (Young's
    inequality on <M(u-v), u+v>); asserted numerically below.
    """
    rho = rng.uniform(0.0, 0.6)
    M = rng.standard_normal((N, N))
    M = 0.5 * (M + M.T)
    nrm = spectral_norm(M)
    if nrm > 0:
        M *= rho * (3.0 / eps) / nrm
    s = eps * spectral_norm(M) ** 2 / 3.0 + 1e-12
    X, Y = M - s * np.eye(N), M + s * np.eye(N)
    big = np.zeros((2 * N, 2 * N))
    big[:N, :N], big[N:, N:] = X, -Y
    J = np.block([[np.eye(N), -np.eye(N)], [-np.eye(N), np.eye(N)]])
    upper = float(np.linalg.eigvalsh((3.0 / eps) * J - big).min())
    lower = float(np.linalg.eigvalsh(big + (3.0 / eps) * np.eye(2 * N)).min())
    assert upper >= -1e-8 and lower >= -1e-8, "block pair construction violated admissibility"
    return X, Y


def check_F1_standard_form(op: DriftDiffusionOperator, R: float) -> ModulusReport:
    """Structure-condition consequence on block-admissible matrix pairs.

    Samples F(y, p, Y) - F(x, p, X) with p = (x-y)/eps over pairs x, y in
    B_R and admissible (X, Y); normalizes by |x-y| + |x-y|^2/eps and bins by
    |x-y|.  For locally Lipschitz sigma, b the normalized value is bounded by
    3 Lip(sigma)^2 + Lip(b) (estimated on the same window), which is the
    pass criterion; a NaN value fails it.
    """
    rng = np.random.default_rng(F1_SEED)
    pair_samples = []
    for _ in range(F1_PAIRS):
        x = rng.uniform(-R, R, op.N)
        y = np.clip(x + rng.uniform(-0.5 * R, 0.5 * R, op.N), -R, R)
        pair_samples.append((x, y, float(rng.choice(F1_EPS_VALUES))))
    lip_s, lip_b = _lipschitz([(x, y) for x, y, _ in pair_samples], op.sigma_at, op.b_at)
    c_est = 3.0 * lip_s**2 + lip_b

    dists, normalized = [], []
    for x, y, eps in pair_samples:
        x, y = as_point(x, op.N), as_point(y, op.N)
        d = float(np.linalg.norm(x - y))
        if d < 1e-12:
            continue
        X, Y = _admissible_blocks(rng, op.N, eps)
        p = (x - y) / eps
        gap = op(y, p, Y) - op(x, p, X)
        dists.append(d)
        normalized.append(max(gap, 0.0) / (d + d**2 / eps))
    edges, values = binned_max(dists, normalized)
    filled = [v for v in values if not np.isnan(v)]
    passed = not np.isnan(normalized).any() and all(v <= c_est * 1.1 + STRUCTURE_TOL for v in filled)
    return ModulusReport(
        "F1 structure condition",
        tuple(edges),
        tuple(values),
        passed,
        notes="empirical table on structured block pairs; consistent-with check only",
        extra={"lipschitz_sigma": lip_s, "lipschitz_b": lip_b, "bound_estimate": c_est},
    )
