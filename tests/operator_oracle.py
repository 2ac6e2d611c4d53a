"""The sampled operator checks as they were written per sample, kept as the
oracle of the library's stacked ones.

The library draws the samples of check_degenerate_ellipticity and
check_F1_standard_form once per process, evaluates sigma and b once per
sample point and F on the whole stack.  The loops below redraw the same
seeded samples on every call and evaluate F(x, xi, X) per call with scalar
float arithmetic, twice per point.  The library's reports must equal these
bit for bit.
"""

import numpy as np

from viscompare.fields import as_point
from viscompare.hamiltonians import CheckReport, ModulusReport, binned_max, worst_case
from viscompare.operators import (CHECK_TOL, ELLIPTICITY_SAMPLES, ELLIPTICITY_SEED, F1_EPS_VALUES,
                                  F1_PAIRS, F1_SEED, STRUCTURE_TOL, _admissible_blocks)


def F(op, x, xi, X) -> float:
    """The earlier DriftDiffusionOperator.__call__, with sigma sigma^T inline."""
    xi = as_point(xi, op.N)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    s = op.sigma_at(x)
    return float(-np.trace((s @ s.T) @ X) + op.b_at(x) @ xi)


def check_degenerate_ellipticity(op) -> CheckReport:
    rng = np.random.default_rng(ELLIPTICITY_SEED)
    gaps, cases = [], []
    for _ in range(ELLIPTICITY_SAMPLES):
        x = rng.uniform(-3, 3, op.N)
        xi = rng.uniform(-3, 3, op.N)
        Y = rng.standard_normal((op.N, op.N))
        Y = 0.5 * (Y + Y.T)
        G = rng.standard_normal((op.N, op.N))
        gaps.append(F(op, x, xi, Y + G @ G.T) - F(op, x, xi, Y))
        cases.append((x, xi))
    worst, i = worst_case(gaps, -np.inf, larger=True)
    return CheckReport("degenerate ellipticity", worst <= CHECK_TOL, worst,
                       None if i is None else cases[i])


def _lipschitz(pairs, *fields):
    pairs = [(x, y, d) for x, y in pairs if (d := float(np.linalg.norm(x - y))) >= 1e-12]
    return [worst_case([float(np.linalg.norm(g(x) - g(y))) / d for x, y, d in pairs],
                       0.0, larger=True)[0] for g in fields]


def check_F1_standard_form(op, R: float) -> ModulusReport:
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
        gap = F(op, y, p, Y) - F(op, x, p, X)
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
