"""Exponential tilting and I-projection under moment constraints.

Given a strictly positive baseline law P and a moment statistic h, the
exponential tilt with multiplier ``lam`` is

    P_lam(x) = P(x) * exp(lam . h(x) - M(lam)),
    M(lam)   = ln sum_x P(x) exp(lam . h(x)),

and the I-projection of P onto a constraint set {Q : E_Q[h] = alpha}
(or a one-dimensional halfspace {E_Q[h] >= alpha}) is the unique tilt
meeting the constraint.  The multiplier is found by Newton's method on
the strictly convex dual lam -> M(lam) - lam . alpha, whose gradient is
the tilted mean of h and whose Hessian is the tilted covariance; in one
dimension a bracketing bisection on the monotone mean map guarantees
convergence even when Newton stalls.

Sign convention: the tilt density uses exp(+lam . h).  Raising a mean
above the baseline mean therefore yields a positive multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .simplex import Alphabet, Distribution, LOG_FLOOR, kl_divergence

__all__ = [
    "MomentFunction",
    "MomentConstraint",
    "TiltSolution",
    "InfeasibleConstraintError",
    "SolverError",
    "log_partition",
    "tilt",
    "moment_map",
    "solve_moment_equality",
    "i_project",
    "tilted_cdf",
    "open_window_mask",
]

RESIDUAL_TOL = 1e-10
MAX_NEWTON_ITERS = 100
# Targets closer to the hull boundary than this relative margin are treated
# as boundary points: no finite multiplier reaches them.
HULL_MARGIN = 1e-9


class InfeasibleConstraintError(ValueError):
    """A constraint whose target is outside or on the moment hull boundary."""


class SolverError(RuntimeError):
    """The moment solve stopped short of its residual on a target inside the hull."""


@dataclass(frozen=True)
class MomentFunction:
    """A statistic h: alphabet -> R^d given by its k x d value table.

    Every column must take at least two distinct values; a constant
    coordinate makes the dual unidentifiable and is rejected up front.
    """

    alphabet: Alphabet
    table: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.ndim == 1:
            table = table[:, None]
        if table.ndim != 2 or table.shape[0] != self.alphabet.size:
            raise ValueError(
                f"value table has shape {table.shape}, expected ({self.alphabet.size}, d)"
            )
        if not np.all(np.isfinite(table)):
            raise ValueError("moment values must be finite")
        if np.any(table.max(axis=0) - table.min(axis=0) == 0):
            raise ValueError("constant moment coordinate: the moment map would be degenerate")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def dimension(self) -> int:
        return self.table.shape[1]

    @classmethod
    def from_labels(cls, alphabet: Alphabet) -> "MomentFunction":
        """Scalar statistic h(x) = numeric value of the symbol label."""
        return cls(alphabet, alphabet.label_values())


@dataclass(frozen=True)
class MomentConstraint:
    """An equality or lower-halfspace constraint on E_Q[h], optionally windowed.

    ``kind`` is "equality" or "halfspace" (meaning E_Q[h] >= target, d = 1
    only).  A window half-width ``epsilon`` turns the target into the open
    interval (target - epsilon, target + epsilon) on the scalar moment;
    windows are the positive-probability stand-in for exact equality events
    and require inf h < a < b < sup h.
    """

    function: MomentFunction
    kind: str
    target: np.ndarray
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("equality", "halfspace"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        target = np.atleast_1d(np.asarray(self.target, dtype=float))
        if target.shape != (self.function.dimension,):
            raise ValueError(
                f"target has shape {target.shape}, expected ({self.function.dimension},)"
            )
        if self.kind == "halfspace" and self.function.dimension != 1:
            raise ValueError("halfspace constraints are one-dimensional")
        if self.epsilon is not None:
            if self.function.dimension != 1:
                raise ValueError("windows are one-dimensional")
            if self.epsilon <= 0:
                raise ValueError(f"window half-width must be > 0, got {self.epsilon}")
            lo, hi = self.window
            h = self.function.table[:, 0]
            if not (h.min() < lo and hi < h.max()):
                raise ValueError(
                    f"window ({lo}, {hi}) must sit strictly inside the value range "
                    f"({h.min()}, {h.max()})"
                )
        target = target.copy()
        target.flags.writeable = False
        object.__setattr__(self, "target", target)

    @property
    def window(self) -> tuple[float, float]:
        if self.epsilon is None:
            raise ValueError("constraint carries no window")
        alpha = float(self.target[0])
        return alpha - self.epsilon, alpha + self.epsilon


@dataclass(frozen=True)
class TiltSolution:
    """Result of an I-projection / moment solve.

    ``status`` is "interior" (the baseline already meets the constraint,
    multiplier 0), "active" (a genuine tilt), or "boundary-infeasible"
    (the target is outside or on the moment hull boundary and no finite
    multiplier exists; ``tilted`` is then None and ``diagnostic`` says why).
    """

    multiplier: np.ndarray
    log_partition: float
    tilted: Distribution | None
    divergence: float
    status: str
    residual: float
    diagnostic: str = ""

    @property
    def feasible(self) -> bool:
        return self.status != "boundary-infeasible"


def _require_positive(p: Distribution) -> None:
    if not p.strictly_positive:
        raise ValueError("baseline law must be strictly positive")


def _lam_vector(h: MomentFunction, lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (h.dimension,):
        raise ValueError(f"multiplier has shape {lam.shape}, expected ({h.dimension},)")
    if not np.all(np.isfinite(lam)):
        raise ValueError("multiplier must be finite")
    return lam


def log_partition(p: Distribution, h: MomentFunction, lam) -> float:
    """ln sum_x p(x) exp(lam . h(x)), via a max-shifted log-sum-exp."""
    _require_positive(p)
    lam = _lam_vector(h, lam)
    scores = np.log(p.masses) + h.table @ lam
    top = scores.max()
    return float(top + np.log(np.exp(scores - top).sum()))


def tilt(p: Distribution, h: MomentFunction, lam) -> Distribution:
    """The exponential tilt of ``p`` with multiplier ``lam``.

    The zero multiplier returns ``p`` unchanged (same object).  Log-masses
    are floored so the result stays strictly positive in floating point.
    """
    _require_positive(p)
    lam = _lam_vector(h, lam)
    if not lam.any():
        return p
    scores = np.log(p.masses) + h.table @ lam
    scores -= scores.max()
    masses = np.exp(np.maximum(scores, LOG_FLOOR))
    return Distribution(p.alphabet, masses / masses.sum())


def moment_map(p: Distribution, h: MomentFunction, lam) -> np.ndarray:
    """Mean of h under the tilt, i.e. the gradient of the log-partition."""
    q = tilt(p, h, lam)
    return q.masses @ h.table


def _tilted_covariance(p: Distribution, h: MomentFunction, lam) -> np.ndarray:
    q = tilt(p, h, lam).masses
    mean = q @ h.table
    centered = h.table - mean
    return (centered * q[:, None]).T @ centered


def _interior_margins(h: MomentFunction) -> np.ndarray:
    span = h.table.max(axis=0) - h.table.min(axis=0)
    return HULL_MARGIN * span


def _in_hull(h: MomentFunction, point: np.ndarray) -> bool:
    """Is ``point`` a convex combination of the rows of the value table?"""
    k, d = h.table.shape
    a_eq = np.vstack([h.table.T, np.ones((1, k))])
    b_eq = np.concatenate([point, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return bool(res.status == 0)


def _strictly_inside_hull(h: MomentFunction, alpha: np.ndarray) -> bool:
    margins = _interior_margins(h)
    if h.dimension == 1:
        lo, hi = h.table[:, 0].min(), h.table[:, 0].max()
        return bool(lo + margins[0] < alpha[0] < hi - margins[0])
    if not _in_hull(h, alpha):
        return False
    # Axis probes: the target must stay in the hull after a small nudge in
    # every coordinate direction.
    for j in range(h.dimension):
        for sign in (-1.0, 1.0):
            probe = alpha.copy()
            probe[j] += sign * margins[j]
            if not _in_hull(h, probe):
                return False
    return True


def _solution_at(p: Distribution, h: MomentFunction, lam: np.ndarray, alpha: np.ndarray, status: str) -> TiltSolution:
    tilted = tilt(p, h, lam)
    logz = log_partition(p, h, lam)
    residual = float(np.linalg.norm(tilted.masses @ h.table - alpha))
    return TiltSolution(
        multiplier=lam,
        log_partition=logz,
        tilted=tilted,
        divergence=kl_divergence(tilted, p),
        status=status,
        residual=residual,
    )


def _infeasible(alpha: np.ndarray, diagnostic: str) -> TiltSolution:
    return TiltSolution(
        multiplier=np.full_like(np.atleast_1d(alpha), np.nan),
        log_partition=math.nan,
        tilted=None,
        divergence=math.inf,
        status="boundary-infeasible",
        residual=math.inf,
        diagnostic=diagnostic,
    )


def _bisect_scalar(p: Distribution, h: MomentFunction, alpha: float) -> np.ndarray:
    """Bracket by doubling, then bisect the monotone scalar mean map."""
    lo, hi = -1.0, 1.0
    for _ in range(120):
        if moment_map(p, h, [lo])[0] < alpha:
            break
        lo *= 2.0
    for _ in range(120):
        if moment_map(p, h, [hi])[0] > alpha:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if moment_map(p, h, [mid])[0] < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
    return np.array([0.5 * (lo + hi)])


def solve_moment_equality(p: Distribution, h: MomentFunction, alpha) -> TiltSolution:
    """Tilt ``p`` so that the tilted mean of h equals ``alpha``.

    Newton iteration on the convex dual from the zero multiplier, with step
    halving whenever the residual fails to decrease; for scalar h a
    bracketing bisection fallback guarantees convergence.  Targets outside
    (or on the boundary of) the convex hull of the value table get status
    "boundary-infeasible" instead of a solution.
    """
    _require_positive(p)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (h.dimension,):
        raise ValueError(f"target has shape {alpha.shape}, expected ({h.dimension},)")
    if not _strictly_inside_hull(h, alpha):
        return _infeasible(alpha, "target is outside (or on the boundary of) the convex hull of the moment values")

    lam = np.zeros(h.dimension)
    residual_vec = moment_map(p, h, lam) - alpha
    if np.linalg.norm(residual_vec) <= RESIDUAL_TOL:
        return _solution_at(p, h, lam, alpha, "interior")

    best = np.linalg.norm(residual_vec)
    for _ in range(MAX_NEWTON_ITERS):
        cov = _tilted_covariance(p, h, lam)
        try:
            step = np.linalg.solve(cov, -residual_vec)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(cov + 1e-12 * np.eye(h.dimension), -residual_vec)
        # An infinite step (vanishing tilted variance) fails; bisection takes over.
        scale = 1.0
        for _ in range(60):
            cand = lam + scale * step
            if np.all(np.isfinite(cand)):
                cand_res = moment_map(p, h, cand) - alpha
                if np.linalg.norm(cand_res) < best:
                    lam, residual_vec, best = cand, cand_res, np.linalg.norm(cand_res)
                    break
            scale *= 0.5
        else:
            break
        if best <= RESIDUAL_TOL:
            return _solution_at(p, h, lam, alpha, "active")

    if h.dimension == 1:
        lam = _bisect_scalar(p, h, float(alpha[0]))
        if np.linalg.norm(moment_map(p, h, lam) - alpha) <= RESIDUAL_TOL:
            return _solution_at(p, h, lam, alpha, "active")
    raise SolverError(
        f"moment solve did not reach residual {RESIDUAL_TOL} (best {best:.3e}); "
        "the target may lie on or near the boundary of the moment hull, or the "
        f"smallest baseline mass ({p.masses.min():.3e}) may be too small to tilt"
    )


def i_project(p: Distribution, constraint: MomentConstraint) -> TiltSolution:
    """I-projection of ``p`` onto the constraint set.

    Equality constraints delegate to the moment solve.  For a halfspace
    E_Q[h] >= target the projection is ``p`` itself when the baseline
    already satisfies it (inactive constraint, multiplier 0) and the
    equality tilt otherwise.  Windowed constraints project onto the window
    midpoint's equality slice when the baseline mean is outside the window.
    """
    _require_positive(p)
    h = constraint.function
    alpha = constraint.target
    if constraint.epsilon is not None:
        lo, hi = constraint.window
        base = float(p.masses @ h.table[:, 0])
        if lo < base < hi:
            return _solution_at(p, h, np.zeros(1), np.array([base]), "interior")
        return solve_moment_equality(p, h, [0.5 * (lo + hi)])
    if constraint.kind == "equality":
        return solve_moment_equality(p, h, alpha)
    # Halfspace: inactive constraint when the baseline mean already clears the target.
    base = float(p.masses @ h.table[:, 0])
    if base >= float(alpha[0]):
        return _solution_at(p, h, np.zeros(1), np.array([base]), "interior")
    return solve_moment_equality(p, h, alpha)


def open_window_mask(means, lo: float, hi: float, scale: float) -> np.ndarray:
    """Membership in the open window (lo, hi), excluding lattice endpoints.

    The same comparison (strict, with a 1e-12-scaled tolerance so values
    exactly on an endpoint are excluded) is used by the exact oracle and the
    samplers, so both condition on the identical event.
    """
    tol = 1e-12 * max(1.0, scale)
    means = np.asarray(means, dtype=float)
    return (means > lo + tol) & (means < hi - tol)


def tilted_cdf(p: Distribution, h: MomentFunction, lam: float, index: int) -> float:
    """Cumulative mass of the tilt up to symbol ``index`` in alphabet order."""
    if h.dimension != 1:
        raise ValueError("tilted_cdf needs a scalar moment function")
    if not (0 <= index < p.alphabet.size):
        raise ValueError(f"symbol index {index} out of range")
    q = tilt(p, h, [lam])
    return float(q.masses[: index + 1].sum())
