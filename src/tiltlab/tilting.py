"""Exponential tilting and I-projection under moment constraints.

Given a strictly positive baseline law P and a moment statistic h, the
exponential tilt with multiplier ``lam`` is

    P_lam(x) = P(x) * exp(lam . h(x) - M(lam)),
    M(lam)   = ln sum_x P(x) exp(lam . h(x)),

and the I-projection of P onto a constraint's closed box of means (a
point alpha, a halfspace or a window) is P itself when P's mean lies in
the box, and otherwise the unique tilt whose mean is P's mean clipped to
the box.  One Levenberg-damped Newton iteration, the same for every
dimension d, minimises the strictly convex dual lam -> M(lam) - lam . alpha.
Targets off the moment hull fail a per-axis range check, or (d >= 2) give
a separating direction from the iteration; either way the solve raises
:class:`InfeasibleConstraintError`.

Sign convention: the tilt density uses exp(+lam . h).  Raising a mean
above the baseline mean therefore yields a positive multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
]

RESIDUAL_TOL = 1e-10
MAX_NEWTON_ITERS = 200
# Targets closer to the hull boundary than this relative margin are treated
# as boundary points: no finite multiplier reaches them.
HULL_MARGIN = 1e-9
# Levenberg damping of the dual Newton step (More 1978, LNM 630), in units of
# each coordinate's squared value span: its first value, its floor, and the
# factors by which an accepted step divides it and a rejected step multiplies it.
DAMPING_START = 1e-3
DAMPING_FLOOR = 1e-14
DAMPING_DECREASE = 3.0
DAMPING_INCREASE = 4.0
# Tolerance, scaled by max(1, max|h|), for deciding whether an empirical mean
# meets a constraint; strict enough that no lattice point one step away is
# ever misclassified.
LATTICE_TOL = 1e-12


class InfeasibleConstraintError(ValueError):
    """A constraint that no law meets: its target is outside or on the
    boundary of the moment hull, or no type of the requested size meets it."""


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
    """An equality or lower-halfspace constraint on E_Q[h], the equality
    optionally windowed.

    ``kind`` is "equality" or "halfspace" (meaning E_Q[h] >= target, d = 1
    only).  A window half-width ``epsilon`` turns an equality target into
    the open interval (target - epsilon, target + epsilon) on the scalar
    moment; windows are the positive-probability stand-in for exact
    equality events and require inf h < a < b < sup h.  A halfspace takes
    no window.
    """

    function: MomentFunction
    kind: str
    target: np.ndarray
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("equality", "halfspace"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "halfspace" and self.function.dimension != 1:
            raise ValueError("halfspace constraints are one-dimensional")
        if self.epsilon is not None and self.function.dimension != 1:
            raise ValueError("windows are one-dimensional")
        if self.epsilon is not None and self.kind == "halfspace":
            raise ValueError("a halfspace takes no window: epsilon applies to equality targets only")
        target = np.atleast_1d(np.asarray(self.target, dtype=float))
        if target.shape != (self.function.dimension,):
            raise ValueError(
                f"target has shape {target.shape}, expected ({self.function.dimension},)"
            )
        if not np.all(np.isfinite(target)):
            raise ValueError(f"target must be finite, got {target.tolist()}")
        target = target.copy()
        target.flags.writeable = False
        object.__setattr__(self, "target", target)
        if self.epsilon is not None:
            if self.epsilon <= 0:
                raise ValueError(f"window half-width must be > 0, got {self.epsilon}")
            (lo,), (hi,) = self.bounds
            h = self.function.table[:, 0]
            if not (h.min() < lo and hi < h.max()):
                raise ValueError(
                    f"window ({lo}, {hi}) must sit strictly inside the value range "
                    f"({h.min()}, {h.max()})"
                )

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The closed box [lo, hi] of means, as length-d arrays: the target
        twice for an equality, [target, inf) for a halfspace and the closed
        window [target - epsilon, target + epsilon]."""
        if self.epsilon is not None:
            return self.target - self.epsilon, self.target + self.epsilon
        if self.kind == "halfspace":
            return self.target, np.full_like(self.target, np.inf)
        return self.target, self.target

    def holds(self, means) -> np.ndarray:
        """Which rows of empirical means, shape (T, d) or (T,) for d = 1,
        satisfy the constraint: the one membership test of the exact oracle
        and the samplers.  A ``LATTICE_TOL``-scaled tolerance widens the box
        of :attr:`bounds`, or narrows a window, whose ends are excluded.
        """
        means = np.asarray(means, dtype=float)
        if means.ndim == 1:
            means = means[:, None]
        if means.ndim != 2 or means.shape[1] != self.function.dimension:
            raise ValueError(f"means have shape {means.shape}, expected (T, {self.function.dimension})")
        tol = LATTICE_TOL * max(1.0, float(np.abs(self.function.table).max()))
        lo, hi = self.bounds
        if self.epsilon is not None:
            return np.all((means > lo + tol) & (means < hi - tol), axis=1)
        return np.all((means - lo >= -tol) & (means - hi <= tol), axis=1)

    def holds_for_counts(self, counts: np.ndarray) -> np.ndarray:
        """Which rows of symbol counts, shape (T, k), have a mean that
        :meth:`holds`: the one reduction from a sequence to the event, shared
        by the exact oracle and the samplers.  The k columns are added in
        symbol order, so a row's verdict depends on neither the other rows
        nor the order of the sequence's symbols.
        """
        columns = list(counts.T)
        size = sum(columns)
        means = [sum(column * value for column, value in zip(columns, values)) / size for values in self.function.table.T]
        return self.holds(np.stack(means, axis=1))


@dataclass(frozen=True)
class TiltSolution:
    """Result of an I-projection / moment solve.

    ``status`` is "interior" (the baseline already meets the constraint,
    multiplier 0) or "active" (a genuine tilt, ``residual`` at most
    ``RESIDUAL_TOL``).  A target with no finite multiplier has no solution:
    the solve raises :class:`InfeasibleConstraintError` instead.
    """

    multiplier: np.ndarray
    log_partition: float
    tilted: Distribution
    divergence: float
    status: str
    residual: float


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


def _centred_dual(log_p: np.ndarray, shifted: np.ndarray, lam: np.ndarray):
    """The dual f(lam) = ln sum_x p(x) exp(lam . (h(x) - alpha)), its gradient
    (the tilted mean of h - alpha), its Hessian (the tilted covariance of h)
    and the rounding level of f; None when a score is not finite.

    Centring h at alpha keeps the scores free of the cancellation between
    ln p(x) and lam . h(x) that an uncentred dual suffers at large |lam|.
    """
    scores = log_p + shifted @ lam
    if not np.all(np.isfinite(scores)):
        return None
    top = scores.max()
    weights = np.exp(scores - top)
    total = weights.sum()
    q = weights / total
    grad = q @ shifted
    centred = shifted - grad
    cov = (centred * q[:, None]).T @ centred
    rounding = 8 * np.finfo(float).eps * float((np.abs(log_p) + np.abs(shifted) @ np.abs(lam)).max())
    return top + math.log(total), grad, cov, rounding


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


def _unreachable(alpha: np.ndarray) -> InfeasibleConstraintError:
    return InfeasibleConstraintError(
        f"target {alpha.tolist()} is not reachable by a tilt: it is outside "
        "(or on the boundary of) the convex hull of the moment values"
    )


def solve_moment_equality(p: Distribution, h: MomentFunction, alpha) -> TiltSolution:
    """Tilt ``p`` so that the tilted mean of h equals ``alpha``.

    A target within ``HULL_MARGIN`` (relative) of either end of some
    coordinate's value range raises :class:`InfeasibleConstraintError` at
    once; for scalar h that is the whole hull test.  Otherwise a Levenberg-damped Newton
    iteration minimises the centred dual from the zero multiplier with the
    step (Cov + mu D)^-1 (alpha - E h), D the diagonal of squared value
    spans (mu I in span units).  A step is accepted when the dual
    does not rise, or when it is flat to rounding and the residual falls;
    mu then shrinks, and grows on a rejection.  The iteration runs until
    the residual stops falling, and a solve that ends with residual at most
    ``RESIDUAL_TOL`` is "active".

    For d >= 2 a target on or beyond a slanted face of the hull sends the
    multiplier off along the face's outer normal; on the face itself the
    residual can still fall below ``RESIDUAL_TOL``.  So before any solve
    is accepted, the target is infeasible, with the same error, when the
    multiplier's direction, the negative residual or the last accepted
    step gives a unit vector u with max_x u . (h(x) - alpha) <= max_j |u_j|
    margin_j: no value lies further than the margin past alpha along u.
    An unconverged solve that passes this test raises ``SolverError``.
    """
    _require_positive(p)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (h.dimension,):
        raise ValueError(f"target has shape {alpha.shape}, expected ({h.dimension},)")
    lo, hi = h.table.min(axis=0), h.table.max(axis=0)
    margins = HULL_MARGIN * (hi - lo)
    if not np.all((lo + margins < alpha) & (alpha < hi - margins)):
        raise _unreachable(alpha)

    lam = np.zeros(h.dimension)
    if np.linalg.norm(moment_map(p, h, lam) - alpha) <= RESIDUAL_TOL:
        return _solution_at(p, h, lam, alpha, "interior")

    log_p = np.log(p.masses)
    shifted = h.table - alpha
    damping_scale = np.diag((hi - lo) ** 2)
    f, grad, cov, rounding = _centred_dual(log_p, shifted, lam)
    norm = float(np.linalg.norm(grad))
    mu = DAMPING_START
    step = lam
    for _ in range(MAX_NEWTON_ITERS):
        trial = np.linalg.solve(cov + mu * damping_scale, -grad)
        candidate = _centred_dual(log_p, shifted, lam + trial)
        accepted = falls = False
        if candidate is not None:
            new_f, new_grad, _, new_rounding = candidate
            new_norm = float(np.linalg.norm(new_grad))
            falls = new_norm < norm
            accepted = new_f <= f or (new_f - f <= max(rounding, new_rounding) and falls)
        if norm <= RESIDUAL_TOL and not (accepted and falls):
            break
        if accepted:
            lam, step = lam + trial, trial
            (f, grad, cov, rounding), norm = candidate, new_norm
            mu = max(mu / DAMPING_DECREASE, DAMPING_FLOOR)
        else:
            mu *= DAMPING_INCREASE

    for direction in (lam, -grad, step):
        length = np.linalg.norm(direction)
        if length > 0:
            u = direction / length
            if (shifted @ u).max() <= (np.abs(u) * margins).max():
                raise _unreachable(alpha)
    if norm <= RESIDUAL_TOL:
        solution = _solution_at(p, h, lam, alpha, "active")
        if solution.residual <= RESIDUAL_TOL:
            return solution
    raise SolverError(
        f"moment solve did not reach residual {RESIDUAL_TOL} (best {norm:.3e}); "
        "the target may lie on or near the boundary of the moment hull, or the "
        f"smallest baseline mass ({p.masses.min():.3e}) may be too small to tilt"
    )


def i_project(p: Distribution, constraint: MomentConstraint) -> TiltSolution:
    """I-projection of ``p`` onto the constraint's closed box of means
    :attr:`~MomentConstraint.bounds` (Csiszar 1975): ``p`` itself (status
    "interior", multiplier 0) when its mean lies in the box, and otherwise
    the equality tilt to the baseline mean clipped to the box.  Every box
    with d >= 2 is one point, an equality target, and on the line the
    clipped mean is the nearest end, so the clip is the projection.
    """
    _require_positive(p)
    h = constraint.function
    lo, hi = constraint.bounds
    base = p.masses @ h.table
    if np.all((lo <= base) & (base <= hi)):
        return _solution_at(p, h, np.zeros(h.dimension), base, "interior")
    return solve_moment_equality(p, h, np.clip(base, lo, hi))
