"""Small numerical utilities shared across the package.

Nothing here knows about barriers or spinors: branch-continued phases
and `_LastPoint`, the one memo of the last one-point call.  Kept
separate so the oracle-style routines can depend on them without
touching the closed-form layer.

Branch continuation has one rule, `continue_branch`, over a whole
sequence of principal values; a caller that meets its points one at a
time collects their principal values and continues them in one call.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

__all__ = [
    "continue_branch",
]


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
