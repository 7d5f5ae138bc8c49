"""Small numerical utilities shared across the package.

Nothing here knows about barriers or spinors: branch-continued phases
and `_LastPoint`, the one memo of the last one-point call.  Kept
separate so the oracle-style routines can depend on them without
touching the closed-form layer.

Branch continuation has one rule, `continue_branch`; PhaseTracker
applies it one value at a time.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

__all__ = [
    "PhaseTracker",
    "continue_branch",
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
