"""The pointwise Hamiltonian formulas, kept as the oracle of the grid evaluators.

The library computes each built-in shape's value and slope in one place, its
grid evaluator (hamiltonians.on_grid); H(x, xi) and H.slope(x, xi) are that
evaluator at the one node x.  The formulas below are the library's earlier,
independent pointwise ones, written per point with scalar float arithmetic.
The grids must equal them bit for bit.  value and slope dispatch on the
shape; any other Hamiltonian is called directly (slope: hamiltonians.
hamiltonian_slope, the central difference for forms without a slope).
"""

import numpy as np

from viscompare.fields import as_point
from viscompare.hamiltonians import (GameHamiltonian, HamiltonianDomainError, MinConvexHamiltonian,
                                     PowerHamiltonian, SignedScalarHamiltonian, hamiltonian_slope)


def _coeff(value, x):
    return value(x) if callable(value) else value


def _non_integer(half_q) -> bool:
    return abs(half_q - round(half_q)) > 1e-12


def _domain_error(s, x, half_q) -> HamiltonianDomainError:
    return HamiltonianDomainError(
        f"<A(x)xi, xi> = {s} < 0 at x = {as_point(x)} with non-integer "
        f"q/2 = {half_q}; A(x) is not positive semidefinite there"
    )


def power_value(H, x, xi) -> float:
    xi = as_point(xi)
    A = np.asarray(_coeff(H.A, as_point(x)), dtype=float)
    s = float(xi @ A @ xi)
    half_q = 0.5 * H.q
    if s < 0 and _non_integer(half_q):
        raise _domain_error(s, x, half_q)
    return float(np.sign(s) * abs(s) ** half_q) if s < 0 else s**half_q


def power_slope(H, x, xi) -> np.ndarray:
    """d/dxi H = q <A xi, xi>^(q/2 - 1) A xi (0 at xi = 0 for q > 1)."""
    xi = as_point(xi)
    A = np.asarray(_coeff(H.A, as_point(x)), dtype=float)
    Axi = A @ xi
    s = float(xi @ A @ xi)
    if s <= 0:
        return np.zeros_like(xi) if H.q < 2 or s == 0 else H.q * s ** (0.5 * H.q - 1.0) * Axi
    return H.q * s ** (0.5 * H.q - 1.0) * Axi


def signed_value(H, x, xi) -> float:
    xi = as_point(xi)
    return float(_coeff(H.a, as_point(x))) * float(np.linalg.norm(xi)) ** H.q


def signed_slope(H, x, xi) -> np.ndarray:
    xi = as_point(xi)
    n = float(np.linalg.norm(xi))
    if n == 0.0:
        return np.zeros_like(xi)
    return float(_coeff(H.a, as_point(x))) * H.q * n ** (H.q - 2.0) * xi


def min_convex_value_with_witness(H, x, xi):
    """(min_k H_k(x, xi), k), ties to the lowest component index."""
    best_val, best_k = None, None
    for k, Hk in enumerate(H.components):
        v = float(value(Hk, x, xi))
        if best_val is None or v < best_val:
            best_val, best_k = v, k
    return best_val, best_k


def min_convex_slope(H, x, xi) -> np.ndarray:
    _, k = min_convex_value_with_witness(H, x, xi)
    return slope(H.components[k], x, xi)


def game_term(H, x, xi, alpha, beta) -> float:
    """|sigma(x,a,b)^T xi|^2 - |tau(x,a,b)^T xi|^2."""
    x, xi = as_point(x), as_point(xi)
    s = np.asarray(H.sigma(x, alpha, beta), dtype=float)
    t = np.asarray(H.tau(x, alpha, beta), dtype=float)
    return float(np.dot(s.T @ xi, s.T @ xi) - np.dot(t.T @ xi, t.T @ xi))


def game_value_with_witness(H, x, xi):
    """(min over beta of max over alpha of the term, (alpha, beta) indices),
    ties to the lowest index."""
    best_min, wit = None, (None, None)
    for ib, beta in enumerate(H.beta_set):
        best_max, ia_best = None, None
        for ia, alpha in enumerate(H.alpha_set):
            v = game_term(H, x, xi, alpha, beta)
            if best_max is None or v > best_max:
                best_max, ia_best = v, ia
        if best_min is None or best_max < best_min:
            best_min, wit = best_max, (ia_best, ib)
    return best_min, wit


def game_slope(H, x, xi) -> np.ndarray:
    xi = as_point(xi)
    _, (ia, ib) = game_value_with_witness(H, x, xi)
    alpha, beta = H.alpha_set[ia], H.beta_set[ib]
    return 2.0 * (H.S(x, alpha, beta) - H.T(x, alpha, beta)) @ xi


VALUES = {
    PowerHamiltonian: power_value,
    SignedScalarHamiltonian: signed_value,
    MinConvexHamiltonian: lambda H, x, xi: min_convex_value_with_witness(H, x, xi)[0],
    GameHamiltonian: lambda H, x, xi: game_value_with_witness(H, x, xi)[0],
}
SLOPES = {
    PowerHamiltonian: power_slope,
    SignedScalarHamiltonian: signed_slope,
    MinConvexHamiltonian: min_convex_slope,
    GameHamiltonian: game_slope,
}


def value(H, x, xi) -> float:
    """H(x, xi) by the pointwise formula of its shape."""
    formula = VALUES.get(type(H))
    return H(x, xi) if formula is None else formula(H, x, xi)


def slope(H, x, xi) -> np.ndarray:
    """d/dxi H(x, xi) by the pointwise formula of its shape."""
    formula = SLOPES.get(type(H))
    return hamiltonian_slope(H, x, xi) if formula is None else formula(H, x, xi)
