"""Coefficient fields: multi-index polynomial tables and named built-ins.

Scenario files describe scalar, vector and matrix coefficients either as
polynomial tables (multi-index -> coefficient, e.g. {"2": 0.25} for 0.25*x^2,
{"1,1": 2.0} for 2*x1*x2) or as named closed forms ("bracket" for
sqrt(1+|x|^2)).  Everything here evaluates pointwise on float vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar/sequence to a 1-d float point, optionally checking dim."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"expected a point, got array of shape {p.shape}")
    if dim is not None and p.size != dim:
        raise ValueError(f"point has dimension {p.size}, expected {dim}")
    return p


def _scalar_pow(base: np.ndarray, exponent) -> np.ndarray:
    """Elementwise base**exponent by the scalar float pow, which numpy's
    array power can differ from in the last bit."""
    return np.array([b**exponent for b in base.tolist()])


def _row_dots(G: np.ndarray) -> np.ndarray:
    """Per-row <g_i, g_i> for G of shape (n, N), by the pointwise np.dot kernel."""
    return (G[:, None, :] @ G[:, :, None])[:, 0, 0]


def as_points(grid, dim: int = 1) -> np.ndarray:
    """Coerce a point set to shape (M, dim); a flat array is M points in
    1-d and a single point otherwise."""
    pts = np.atleast_1d(np.asarray(grid, dtype=float))
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    return pts


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial stored as ((powers, coeff), ...)."""

    terms: tuple[tuple[tuple[int, ...], float], ...]
    dim: int

    @classmethod
    def from_table(cls, table: dict, dim: int) -> "Polynomial":
        terms = []
        for key, coeff in table.items():
            if isinstance(key, str):
                powers = tuple(int(s) for s in key.split(","))
            elif isinstance(key, int):
                powers = (key,)
            else:
                powers = tuple(int(k) for k in key)
            if len(powers) != dim:
                raise ValueError(
                    f"multi-index {key!r} has {len(powers)} entries, expected {dim}"
                )
            if any(p < 0 for p in powers):
                raise ValueError(f"negative power in multi-index {key!r}")
            terms.append((powers, float(coeff)))
        terms.sort()
        return cls(tuple(terms), dim)

    def __call__(self, x) -> float:
        p = as_point(x, self.dim)
        total = 0.0
        for powers, coeff in self.terms:
            mono = coeff
            for xi, k in zip(p, powers):
                if k:
                    mono *= xi**k
            total += mono
        return total

    def derivative(self, axis: int) -> "Polynomial":
        terms = []
        for powers, coeff in self.terms:
            k = powers[axis]
            if k == 0:
                continue
            new_powers = tuple(
                pw - 1 if i == axis else pw for i, pw in enumerate(powers)
            )
            terms.append((new_powers, coeff * k))
        return Polynomial(tuple(sorted(terms)), self.dim)

    def gradient(self, x) -> np.ndarray:
        return np.array([self.derivative(i)(x) for i in range(self.dim)])

    def hessian(self, x) -> np.ndarray:
        H = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            di = self.derivative(i)
            for j in range(i, self.dim):
                H[i, j] = H[j, i] = di.derivative(j)(x)
        return H


def named_field(name: str, scale: float = 1.0, power: float = 1.0):
    """Closed-form scalar fields referenced by name in scenario files."""
    if name == "zero":
        return lambda x: 0.0
    if name == "one" or name == "const":
        return lambda x: scale
    if name == "bracket":
        return lambda x: scale * (1.0 + float(np.dot(as_point(x), as_point(x)))) ** (
            0.5 * power
        )
    if name == "abs":
        return lambda x: scale * float(np.linalg.norm(as_point(x))) ** power
    raise ValueError(f"unknown field name {name!r}")


def parse_scalar_field(spec, dim: int):
    """Parse a scenario field spec into a callable point -> float."""
    if isinstance(spec, (int, float)):
        value = float(spec)
        return lambda x: value
    if isinstance(spec, dict):
        if "poly" in spec:
            return Polynomial.from_table(spec["poly"], dim)
        if "name" in spec:
            return named_field(
                spec["name"],
                scale=float(spec.get("scale", 1.0)),
                power=float(spec.get("power", 1.0)),
            )
    raise ValueError(f"cannot parse field spec {spec!r}")


def parse_vector_field(spec, dim: int):
    if not isinstance(spec, (list, tuple)) or len(spec) != dim:
        raise ValueError(f"vector field spec must be a list of {dim} entries")
    entries = [parse_scalar_field(s, dim) for s in spec]
    return lambda x: np.array([e(x) for e in entries])


def parse_matrix_field(spec, dim: int):
    if not isinstance(spec, (list, tuple)) or len(spec) != dim:
        raise ValueError(f"matrix field spec must be a {dim}x{dim} nested list")
    rows = []
    for row in spec:
        if not isinstance(row, (list, tuple)) or len(row) != dim:
            raise ValueError(f"matrix field spec must be a {dim}x{dim} nested list")
        rows.append([parse_scalar_field(s, dim) for s in row])
    return lambda x: np.array([[e(x) for e in row] for row in rows])
