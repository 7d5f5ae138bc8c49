"""Small numerical utilities shared across the package.

Nothing here knows about barriers or spinors: branch-continued phases,
Richardson-extrapolated derivatives, an adaptive Simpson quadrature and a
golden-section minimizer.  Kept separate so the oracle-style routines can
depend on them without touching the closed-form layer.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PhaseTracker",
    "adaptive_simpson",
    "continue_branch",
    "golden_section_min",
    "phase_derivative",
]


class PhaseTracker:
    """Continue a phase defined modulo ``period`` smoothly along a sweep.

    atan2-based phases jump by the period when the underlying point
    crosses a branch cut.  Feeding the principal values through
    :meth:`update` in sweep order removes the jumps: each value is shifted
    by the integer multiple of the period that brings it closest to the
    previous continued value.

    The first call fixes the branch to the principal one, which pins the
    overall additive constant of the continued phase.
    """

    def __init__(self, period: float = math.pi):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self._last: float | None = None

    def update(self, principal: float) -> float:
        """Absorb one principal value, return its continued counterpart."""
        if self._last is None:
            value = principal
        else:
            value = principal + self.period * round((self._last - principal) / self.period)
        self._last = value
        return value

    def reset(self) -> None:
        self._last = None


def continue_branch(values: Sequence[float], period: float = math.pi) -> np.ndarray:
    """Unwrap a sequence of principal phase values in one shot.

    Equivalent to threading the sequence through a fresh
    :class:`PhaseTracker`, but vectorized.
    """
    return np.unwrap(np.asarray(values, dtype=float), period=period)


def phase_derivative(
    f: Callable[[float], float],
    x: float,
    h: float,
    period: float | None = math.pi,
) -> float:
    """Richardson-extrapolated central derivative of a phase-like function.

    Evaluates ``f`` at x -+ h and x -+ h/2, unwraps the four samples with
    the given period (pass ``period=None`` for an ordinary smooth
    function), and combines the two central differences as
    (4 D(h/2) - D(h)) / 3, cancelling the leading O(h^2) error.
    """
    samples = [f(x - h), f(x - h / 2), f(x + h / 2), f(x + h)]
    if period is not None:
        samples = list(np.unwrap(samples, period=period))
    coarse = (samples[3] - samples[0]) / (2.0 * h)
    fine = (samples[2] - samples[1]) / h
    return (4.0 * fine - coarse) / 3.0


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_depth: int = 48,
) -> tuple[float, float]:
    """Adaptive Simpson quadrature of ``f`` over [a, b].

    Returns (value, error_estimate) where the estimate is the accumulated
    |S_fine - S_coarse| / 15 over accepted panels.  The local acceptance
    threshold is rtol * max(|S|, atol / rtol) + atol, with S the
    one-panel Simpson estimate over [a, b], distributed over the panel's
    share of the interval.
    """
    if b <= a:
        return 0.0, 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = _simpson(fa, fm, fb, b - a)
    # Scale for the relative test, fixed from the one-panel estimate.
    scale = max(abs(whole), atol / max(rtol, 1e-300))

    def recurse(lo, flo, hi, fhi, fmid, coarse, depth):
        m = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + m), 0.5 * (m + hi)
        flm, frm = f(lm), f(rm)
        left = _simpson(flo, flm, fmid, m - lo)
        right = _simpson(fmid, frm, fhi, hi - m)
        fine = left + right
        err = (fine - coarse) / 15.0
        budget = (rtol * scale + atol) * (hi - lo) / (b - a)
        if depth >= max_depth or abs(err) <= budget:
            return fine + err, abs(err)
        lv, le = recurse(lo, flo, m, fmid, flm, coarse=left, depth=depth + 1)
        rv, re = recurse(m, fmid, hi, fhi, frm, coarse=right, depth=depth + 1)
        return lv + rv, le + re

    value, err = recurse(a, fa, b, fb, fm, coarse=whole, depth=0)
    return value, err


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> float:
    """Locate a minimum of a unimodal function on [a, b].

    Plain golden-section search; returns the midpoint of the final
    bracket once its width drops below ``tol``.
    """
    if b < a:
        a, b = b, a
    width = b - a
    if width <= tol:
        return 0.5 * (a + b)
    n = max(1, math.ceil(math.log(tol / width) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * width
    d = a + _INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(n):
        if fc < fd:
            b, d, fd = d, c, fc
            width *= _INV_PHI
            c = a + _INV_PHI2 * width
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            width *= _INV_PHI
            d = a + _INV_PHI * width
            fd = f(d)
    return 0.5 * (a + b)
