"""Small numerical utilities shared across the package.

Nothing here knows about barriers or spinors: branch-continued phases,
a golden-section minimizer and `_LastPoint`, the one memo of the last
one-point call.  The minimizer is array-native: it steps arrays of
brackets in lock-step, one objective call per step.  Kept separate so
the oracle-style routines can depend on them without touching the
closed-form layer.

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
    # math.log, not np.log (an ulp could flip the ceil), once per distinct width:
    # brackets of a uniform scan share a few widths.
    widths = width.ravel().tolist()
    count = {w: 0 if w <= tol else max(1, math.ceil(math.log(tol / w) / math.log(_INV_PHI)))
             for w in set(widths)}
    steps = np.array([count[w] for w in widths], dtype=int).reshape(width.shape)
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
