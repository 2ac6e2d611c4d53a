"""Second-order drift-diffusion operators and their extremal bounds.

F(x, xi, X) = -Tr(sigma sigma^T X) + <b, xi> is the model operator; its
extremal companion P(x, X) = -Tr(sigma0 sigma0^T X) together with the drift
bound b0(x)|xi| controls differences of F in the comparison argument.  The
check_* functions sample the structural hypotheses (degenerate ellipticity,
coefficient growth, Gamma degeneracy, the structure-condition consequence)
and report worst cases with witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import growth
from .fields import as_point
from .hamiltonians import CheckReport, ModulusReport, binned_max, sampled_homogeneity

ELLIPTICITY_SAMPLES = 500         # random cases of check_degenerate_ellipticity
LIPSCHITZ_PAIRS = 200             # check_A1_A3: point pairs for the A3 quotients
F1_PAIRS = 240                    # check_F1_standard_form: random pairs x, y
F1_EPS_VALUES = (0.5, 0.1, 0.02)  # the eps each of those pairs draws from


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


def check_F2_homogeneity(F, samples, thetas, tol: float = 1e-12) -> CheckReport:
    """Positive one-homogeneity in (xi, X) for any F(x, xi, X) evaluator.

    This is the only sampling check available for general (non-model-form)
    operators; all other F-hypotheses need the drift-diffusion structure.
    """
    cases = [(x, np.atleast_1d(np.asarray(xi, dtype=float)), np.atleast_2d(np.asarray(X, dtype=float)))
             for x, xi, X in samples]
    return sampled_homogeneity("F2 homogeneity", lambda c, t: float(F(c[0], t * c[1], t * c[2])),
                               cases, thetas, 1, tol)


def check_degenerate_ellipticity(op: DriftDiffusionOperator, samples=None,
                                 rng=None, tol: float = 1e-9) -> CheckReport:
    """Sample F(x, xi, X) <= F(x, xi, Y) + tol for X = Y + (psd increment)."""
    if samples is None:
        rng = np.random.default_rng(0) if rng is None else rng
        samples = []
        for _ in range(ELLIPTICITY_SAMPLES):
            x = rng.uniform(-3, 3, op.N)
            xi = rng.uniform(-3, 3, op.N)
            Y = rng.standard_normal((op.N, op.N))
            Y = 0.5 * (Y + Y.T)
            G = rng.standard_normal((op.N, op.N))
            samples.append((x, xi, Y, G @ G.T))
    worst, witness = -np.inf, None
    for x, xi, Y, inc in samples:
        gap = op(x, xi, np.asarray(Y) + np.asarray(inc)) - op(x, xi, Y)
        if gap > worst:
            worst, witness = gap, (np.asarray(x), np.asarray(xi))
    return CheckReport("degenerate ellipticity", worst <= tol, worst, witness)


@dataclass(frozen=True)
class F3F4Report:
    mode: str
    sigma0_report: growth.GrowthReport
    b0_report: growth.GrowthReport
    passed: bool


def check_F3_F4_growth(ext: ExtremalOperator, mode: str = "strict",
                       radii=None, tol: float = 0.02, dim: int | None = None) -> F3F4Report:
    """Classify |sigma0| and b0 with growth order 1.

    strict mode demands order-1 vanishing relative growth (S_1) of both;
    relaxed mode only bounded relative growth (SG_1).  tol defaults to 0.02:
    bounded coefficients sampled at radius 1e4 sit at -1e-4, well inside,
    while genuinely linear-growth coefficients sit at O(1) and fail strict.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode}")
    dim = ext.N if dim is None else dim
    rep_s = growth.classify_growth(lambda x: ext.sigma0_norm(x), 1.0, radii=radii, tol=tol, dim=dim)
    rep_b = growth.classify_growth(lambda x: ext.b0_at(x), 1.0, radii=radii, tol=tol, dim=dim)
    if mode == "strict":
        passed = rep_s.in_S and rep_b.in_S
    else:
        passed = rep_s.in_SG and rep_b.in_SG
    return F3F4Report(mode, rep_s, rep_b, passed)


def check_A1_A3(ext: ExtremalOperator, gamma, window_radius: float = 1.0,
                rng=None, tol: float = 1e-8) -> CheckReport:
    """Vanishing of sigma0, b0 on Gamma plus sampled difference quotients.

    A1: |sigma0(x0)| and b0(x0) <= tol at every Gamma point.  A3: local
    Lipschitz constants of sigma0 (Frobenius) and b0 estimated on the window.
    """
    rng = np.random.default_rng(1) if rng is None else rng
    worst, witness = 0.0, None
    for x0 in np.atleast_2d(gamma.gamma_points):
        if x0.size == 0:
            continue
        v = max(ext.sigma0_norm(x0), abs(ext.b0_at(x0)))
        if v > worst:
            worst, witness = v, np.asarray(x0)
    lip_s, lip_b = 0.0, 0.0
    for _ in range(LIPSCHITZ_PAIRS):
        x = rng.uniform(-window_radius, window_radius, ext.N)
        y = rng.uniform(-window_radius, window_radius, ext.N)
        d = float(np.linalg.norm(x - y))
        if d < 1e-12:
            continue
        lip_s = max(lip_s, float(np.linalg.norm(ext.sigma0_at(x) - ext.sigma0_at(y))) / d)
        lip_b = max(lip_b, abs(ext.b0_at(x) - ext.b0_at(y)) / d)
    return CheckReport(
        "A1/A3 Gamma degeneracy + local Lipschitz",
        worst <= tol,
        worst,
        witness,
        notes="A1 vanishing checked on Gamma; A3 reported as sampled difference quotients",
        extra={"lipschitz_sigma0": lip_s, "lipschitz_b0": lip_b},
    )


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


def check_F1_standard_form(op: DriftDiffusionOperator, R: float, pair_samples=None,
                           rng=None, tol: float = 1e-8) -> ModulusReport:
    """Structure-condition consequence on block-admissible matrix pairs.

    Samples F(y, p, Y) - F(x, p, X) with p = (x-y)/eps over pairs x, y in
    B_R and admissible (X, Y); normalizes by |x-y| + |x-y|^2/eps and bins by
    |x-y|.  For locally Lipschitz sigma, b the normalized value is bounded by
    3 Lip(sigma)^2 + Lip(b) (estimated on the same window), which is the
    pass criterion.
    """
    rng = np.random.default_rng(2) if rng is None else rng
    if pair_samples is None:
        pair_samples = []
        for _ in range(F1_PAIRS):
            x = rng.uniform(-R, R, op.N)
            y = x + rng.uniform(-0.5 * R, 0.5 * R, op.N)
            y = np.clip(y, -R, R)
            pair_samples.append((x, y, float(rng.choice(F1_EPS_VALUES))))
    lip_s, lip_b = 0.0, 0.0
    for x, y, _ in pair_samples:
        d = float(np.linalg.norm(np.asarray(x) - np.asarray(y)))
        if d < 1e-12:
            continue
        lip_s = max(lip_s, float(np.linalg.norm(op.sigma_at(x) - op.sigma_at(y))) / d)
        lip_b = max(lip_b, float(np.linalg.norm(op.b_at(x) - op.b_at(y))) / d)
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
    passed = all(v <= c_est * 1.1 + tol for v in filled)
    return ModulusReport(
        "F1 structure condition",
        tuple(edges),
        tuple(values),
        passed,
        notes="empirical table on structured block pairs; consistent-with check only",
        extra={"lipschitz_sigma": lip_s, "lipschitz_b": lip_b, "bound_estimate": c_est},
    )
