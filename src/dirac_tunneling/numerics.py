"""Small numerical utilities shared across the package.

Nothing here knows about barriers or spinors: branch-continued phases,
an adaptive Simpson quadrature, a golden-section minimizer and
`_LastPoint`, the one memo of the last one-point call.  They are
array-native where it pays: the quadrature takes array integrands and
refines all its panels level by level, one integrand call per level; the
minimizer steps arrays of brackets in lock-step, one objective call per
step.  Kept separate so the oracle-style routines can depend on them
without touching the closed-form layer.

Branch continuation has one rule, `continue_branch`; PhaseTracker
applies it one value at a time.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PhaseTracker",
    "adaptive_simpson",
    "continue_branch",
    "golden_section_min",
]


class PhaseTracker:
    """Continue a phase defined modulo ``period`` smoothly along a sweep.

    atan2-based phases jump by the period when the underlying point
    crosses a branch cut.  Feeding the principal values through
    :meth:`update` in sweep order removes the jumps by the rule of
    :func:`continue_branch`, applied one value at a time: threading a
    sequence through a fresh tracker gives the same values, bit for bit.

    The first call fixes the branch to the principal one, which pins the
    overall additive constant of the continued phase.
    """

    def __init__(self, period: float = math.pi):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.reset()

    def update(self, principal: float) -> float:
        """Absorb one principal value, return its continued counterpart."""
        if self._last is not None:
            self._jumps += round((principal - self._last) / self.period)
        self._last = principal
        return principal - self.period * self._jumps

    def reset(self) -> None:
        self._last: float | None = None
        self._jumps = 0


def continue_branch(values: Sequence[float], period: float = math.pi) -> np.ndarray:
    """Continue phases defined modulo ``period`` along axis 0.

    Each step between successive values, rounded to whole periods (ties to
    even), counts as that many jumps; each value is shifted by the period
    times the jumps before it.  Keeps a floating input dtype, else float64.
    """
    values = np.asarray(values)
    values = values.astype(np.result_type(values, float), copy=False)
    # In place: one array of steps besides the result.
    shifts = values[1:] - values[:-1]
    shifts /= period
    np.rint(shifts, out=shifts)
    np.cumsum(shifts, axis=0, out=shifts)
    shifts *= period
    out = values.copy()
    np.subtract(values[1:], shifts, out=out[1:])
    return out


# Rows of a split panel, from rows x0 x1 x2 f0 f1 f2 xq0 xq1 fq0 fq1 of its parent
# (xq the quarter points): its left half in column 0, its right half in column 1.
_HALVES = np.array([[0, 1], [6, 7], [1, 2], [3, 4], [8, 9], [4, 5]])


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_depth: int = 48,
) -> tuple[float, float]:
    """Adaptive Simpson quadrature of ``f`` over [a, b], or summed over many panels.

    ``f`` maps an array of abscissae to values of the same shape; ``a``
    and ``b`` may be broadcastable arrays of panel ends (empty or reversed
    panels count zero).  Every refinement level calls ``f`` once, on the
    quarter points of all panels still open.  Returns (value, error
    estimate), the estimate summing |S_fine - S_coarse| / 15 over accepted
    panels.  A panel is accepted once that error is within its share
    (width over total width) of rtol * max(|S|, atol / rtol) + atol, S the
    starting panels' summed one-panel estimate, or at depth ``max_depth``.
    """
    lo, hi = (x.ravel() for x in np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float)))
    lo, hi = lo[hi > lo], hi[hi > lo]
    if lo.size == 0:
        return 0.0, 0.0
    # Rows lo, mid, hi of the open panels, then f there; and one-panel estimates.
    panels = np.array([lo, 0.5 * (lo + hi), hi])
    panels = np.concatenate((panels, f(panels)))
    coarse = (hi - lo) * (panels[3] + 4.0 * panels[4] + panels[5]) / 6.0
    # Scale for the relative test, fixed from the starting estimate.
    scale = max(abs(coarse.sum()), atol / max(rtol, 1e-300))
    unit_budget = (rtol * scale + atol) / (hi - lo).sum()
    value = err = 0.0
    for depth in range(max_depth + 1):
        x, fx = panels[:3], panels[3:]
        xq = 0.5 * (x[:2] + x[1:])
        fq = f(xq)
        halves = (x[1:] - x[:2]) * (fx[:2] + 4.0 * fq + fx[1:]) / 6.0
        fine = halves[0] + halves[1]
        delta = (fine - coarse) / 15.0
        done = (np.abs(delta) <= unit_budget * (x[2] - x[0])) | (depth == max_depth)
        value += float((fine + delta).sum(where=done))
        err += float(np.abs(delta).sum(where=done))
        keep = ~done
        if not keep.any():
            break
        # Each open panel splits into its halves, left halves first, then right ones.
        grown = np.concatenate((panels, xq, fq))[:, keep]
        panels = grown[_HALVES].reshape(6, -1)
        coarse = halves[:, keep].ravel()
    return value, err


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> float:
    """Locate a minimum of a unimodal function on [a, b], for one bracket or many.

    Plain golden-section search; returns the midpoint of the final
    bracket once its width drops below ``tol``.  ``a`` and ``b`` may be
    broadcastable arrays of brackets: they are then searched in
    lock-step, each step calling ``f`` once on the array of new
    abscissae, and every element follows exactly the scalar search on
    its own bracket, stopping after its own step count.  Scalar ``a``,
    ``b`` return a float.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b = np.where(b < a, b, a), np.where(b < a, a, b)
    width = b - a
    # math.log per bracket: an ulp from np.log could flip the ceil.
    steps = np.array(
        [0 if w <= tol else max(1, math.ceil(math.log(tol / w) / math.log(_INV_PHI)))
         for w in width.ravel().tolist()],
        dtype=int,
    ).reshape(width.shape)
    n_max = int(steps.max(initial=0))
    n_min = int(steps.min(initial=n_max))
    if n_max > 0:
        c = a + _INV_PHI2 * width
        d = a + _INV_PHI * width
        fc, fd = f(c), f(d)
    for step in range(n_max):
        left = fc < fd
        a_next, b_next = np.where(left, a, c), np.where(left, d, b)
        if step >= n_min:
            # A finished bracket keeps its ends, the only state the result reads;
            # its later abscissae stay inside it and are evaluated but unused.
            live = step < steps
            a_next, b_next = np.where(live, a_next, a), np.where(live, b_next, b)
        a, b = a_next, b_next
        width = width * _INV_PHI
        x = np.where(left, a + _INV_PHI2 * width, a + _INV_PHI * width)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    mid = 0.5 * (a + b)
    return float(mid) if mid.ndim == 0 else mid


_FIVE_DOUBLES = struct.Struct("5d")


class _LastPoint:
    """The value of the last one-point call, handed to the next call at the same point.

    ``memo(compute, *point)`` is ``compute(*point)``.  If the point is five
    float scalars, the value is kept under their bits (+0.0 and -0.0
    differ), once ``compute`` has returned, and the next call at the same
    bits returns it without calling ``compute``.  Any other point (arrays,
    0-d arrays, ints) neither reads nor replaces it.  The (key, value) pair
    is read and replaced as one tuple, so threads need no lock.
    """

    __slots__ = ("_kept",)

    def __init__(self):
        self._kept = (None, None)

    def __call__(self, compute, *point):
        for x in point:
            if not isinstance(x, float):
                return compute(*point)
        key = _FIVE_DOUBLES.pack(*point)
        kept_key, value = self._kept
        if kept_key != key:
            value = compute(*point)
            self._kept = (key, value)
        return value
