"""Growth-order arithmetic and sampled growth classification.

The weight <x> = sqrt(1+|x|^2) and its power derivatives feed the barrier
construction.  classify_growth estimates, from samples on bounded shells,
whether a scalar field h keeps +-h(x)/|x|^r asymptotically nonnegative
("S", vanishing relative growth) or merely bounded below ("SG", at most
order-r growth in the one-sided sense).  Membership is always an estimate
on a bounded window, never a proof; every report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _row_dots, _scalar_pow, as_point

DEFAULT_RADII = (10.0, 100.0, 1.0e3, 1.0e4)
SHELL_SAMPLES = 64  # directions per shell of classify_growth (2 in 1-d)


class EvaluationError(ValueError):
    """A field evaluator failed; carries the offending sample point."""

    def __init__(self, point, original):
        self.point = np.asarray(point, dtype=float)
        self.original = original
        super().__init__(f"field evaluation failed at sample point {self.point}: {original}")


@dataclass(frozen=True)
class GrowthExponent:
    """Growth order r > 0."""

    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"growth order must be positive, got {self.r}")

    def __float__(self) -> float:
        return self.r


@dataclass(frozen=True)
class GrowthReport:
    """Estimated growth-class membership of a scalar field.

    liminf_plus/minus are sampled surrogates for liminf of +-h(x)/|x|^r,
    taken over the outermost shells.  Membership flags are estimates on the
    sampled window (see verdict_note), with S => SG enforced.
    """

    in_S_plus: bool
    in_S_minus: bool
    in_SG_plus: bool
    in_SG_minus: bool
    liminf_plus: float
    liminf_minus: float
    radii_used: tuple[float, ...]
    verdict_note: str
    shell_infima_plus: tuple[float, ...] = ()
    shell_infima_minus: tuple[float, ...] = ()

    @property
    def in_S(self) -> bool:
        return self.in_S_plus and self.in_S_minus

    @property
    def in_SG(self) -> bool:
        return self.in_SG_plus and self.in_SG_minus


def bracket(x) -> float:
    """The weight <x> = (1+|x|^2)^(1/2); always >= max(1, |x|)."""
    p = as_point(x)
    return math.sqrt(1.0 + float(np.dot(p, p)))


def bracket_power_derivatives(x, q_prime: float):
    """Gradient and Hessian of <x>^q' for q' > 1 at one point: the one-row
    case of bracket_power_stacks."""
    grad, hess = bracket_power_stacks(as_point(x)[None], q_prime)
    return grad[0], hess[0]


def bracket_power_stacks(pts: np.ndarray, q_prime: float):
    """Gradients (M, N) and symmetrized Hessians (M, N, N) of <x>^q' for
    q' > 1 at the points pts (M, N):

    D<x>^q' = q' <x>^(q'-2) x
    D^2<x>^q' = q' <x>^(q'-4) (<x>^2 I + (q'-2) x (x)T)
    """
    if not q_prime > 1:
        raise ValueError(f"power derivative requires q' > 1, got {q_prime}")
    br = np.sqrt(1.0 + _row_dots(pts))
    grad = (q_prime * _scalar_pow(br, q_prime - 2.0))[:, None] * pts
    hess = (q_prime * _scalar_pow(br, q_prime - 4.0))[:, None, None] * (
        _scalar_pow(br, 2)[:, None, None] * np.eye(pts.shape[1])
        + (q_prime - 2.0) * (pts[:, :, None] * pts[:, None, :])
    )
    return grad, 0.5 * (hess + hess.swapaxes(1, 2))


def conjugate(q: float) -> float:
    """Conjugate exponent q' with 1/q + 1/q' = 1."""
    if not q > 1:
        raise ValueError(f"conjugate exponent requires q > 1, got {q}")
    return q / (q - 1.0)


def shell_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, shape (n, dim)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        # Fibonacci sphere
        k = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * (k + 0.5) / count
        phi = k * np.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    raise ValueError("direction sampling implemented for dim <= 3")


def _eval_field(h, point):
    try:
        return float(h(point))
    except EvaluationError:
        raise
    except Exception as exc:  # propagate with the offending sample point
        raise EvaluationError(point, exc) from exc


def classify_growth(h, r, radii=None, *, tol: float = 1e-9, dim: int = 1) -> GrowthReport:
    """Classify a scalar field into the order-r growth classes by shell sampling.

    Per shell |x| = R the infimum of +-h(x)/|x|^r is taken over the sampled
    directions; the liminf surrogate is the minimum over the two outermost
    shells.  S-membership is reported when the surrogate is >= -tol; SG when
    the surrogate is finite and stable across the outermost shells (relative
    change below 10%), or forced by S-membership.
    """
    r = float(r) if not isinstance(r, GrowthExponent) else r.r
    if not r > 0:
        raise ValueError(f"growth order must be positive, got {r}")
    radii = tuple(float(R) for R in (radii if radii is not None else DEFAULT_RADII))
    if not radii or any(R <= 0 for R in radii):
        raise ValueError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")

    dirs = shell_directions(dim, SHELL_SAMPLES)
    shell_plus, shell_minus = [], []
    for R in radii:
        vals = np.array([_eval_field(h, R * d) for d in dirs])
        ratios = vals / R**r
        shell_plus.append(float(np.min(ratios)))
        shell_minus.append(float(np.min(-ratios)))

    tail = slice(-2, None) if len(radii) >= 2 else slice(None)
    est_plus = min(shell_plus[tail])
    est_minus = min(shell_minus[tail])

    def stabilized(vals):
        if len(vals) < 2:
            return True
        v_prev, v_last = vals[-2], vals[-1]
        return abs(v_last - v_prev) <= 0.1 * max(abs(v_last), abs(v_prev)) + 1e-12

    notes = [
        f"membership estimated on shells |x| in {radii}; not a proof of the limit"
    ]
    in_S_plus = est_plus >= -tol
    in_S_minus = est_minus >= -tol
    sg_plus = stabilized(shell_plus)
    sg_minus = stabilized(shell_minus)
    if not sg_plus and not in_S_plus:
        notes.append("+h/|x|^r surrogate still moving at the outermost shells; SG+ inconclusive")
    if not sg_minus and not in_S_minus:
        notes.append("-h/|x|^r surrogate still moving at the outermost shells; SG- inconclusive")
    in_SG_plus = sg_plus or in_S_plus
    in_SG_minus = sg_minus or in_S_minus

    # snap surrogates within [-tol, 0) to zero so reported membership and
    # surrogate sign agree exactly
    if in_S_plus and est_plus < 0.0:
        est_plus = 0.0
    if in_S_minus and est_minus < 0.0:
        est_minus = 0.0

    return GrowthReport(
        in_S_plus=in_S_plus,
        in_S_minus=in_S_minus,
        in_SG_plus=in_SG_plus,
        in_SG_minus=in_SG_minus,
        liminf_plus=est_plus,
        liminf_minus=est_minus,
        radii_used=radii,
        verdict_note="; ".join(notes),
        shell_infima_plus=tuple(shell_plus),
        shell_infima_minus=tuple(shell_minus),
    )
