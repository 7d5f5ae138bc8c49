"""Small numerical utilities shared across the package.

Nothing here knows about barriers or spinors: branch-continued phases,
an adaptive Gauss-Kronrod (G7, K15) quadrature, a golden-section
minimizer and `_LastPoint`, the one memo of the last one-point call.
They are array-native where it pays: the quadrature takes array
integrands and refines all its panels level by level, one integrand call
per level on the 15 nodes of every open panel; the minimizer steps
arrays of brackets in lock-step, one objective call per step.  Kept
separate so the oracle-style routines can depend on them without
touching the closed-form layer.

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
    "adaptive_gauss_kronrod",
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


# QK15 of QUADPACK on [-1, 1]: the Kronrod nodes in ascending order, the K15 weights,
# and the G7 weights on the nodes of odd index (the 7-point Gauss nodes).
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
_KRONROD_NODES = np.array([-x for x in _XK] + [0.0] + list(_XK[::-1]))[:, None]
_KRONROD_WEIGHTS = np.array(_WK + (_WK0,) + _WK[::-1])
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = _WG + (_WG0,) + _WG[::-1]
# One matrix product gives K15 and K15 - G7 on every panel.
_RULES = np.array([_KRONROD_WEIGHTS, _KRONROD_WEIGHTS - _GAUSS_WEIGHTS])


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_depth: int = 48,
) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod quadrature of ``f`` over [a, b], or summed over many panels.

    ``f`` maps an array of abscissae to values of the same shape; ``a``
    and ``b`` may be broadcastable arrays of panel ends (empty or reversed
    panels count zero).  Every refinement level calls ``f`` once, on the
    15 Kronrod nodes of all panels still open.  Returns (value, error
    estimate), the value summing K15 and the estimate |K15 - G7| over
    accepted panels.  A panel is accepted once that error is within its
    share (width over total width) of rtol * max(|S|, atol / rtol) + atol,
    S the starting panels' summed K15, or at depth ``max_depth``; an open
    panel is halved.  A non-finite value of ``f`` raises ValueError.
    """
    lo, hi = np.asarray(a, float), np.asarray(b, float)
    center, half = (0.5 * (lo + hi)).ravel(), (0.5 * (hi - lo)).ravel()
    nonempty = half > 0.0
    center, half = center[nonempty], half[nonempty]
    if half.size == 0:
        return 0.0, 0.0
    value = err = 0.0
    for depth in range(max_depth + 1):
        x = center + half * _KRONROD_NODES
        fx = f(x)
        finite = np.isfinite(fx)
        if not finite.all():
            bad = np.unravel_index(np.argmin(finite), fx.shape)
            raise ValueError(f"integrand is not finite at x={float(x[bad])!r}: {fx[bad]}")
        kronrod, delta = half * (_RULES @ fx)
        delta = np.abs(delta)
        if depth == 0:
            # Scale for the relative test, fixed from the starting estimate.
            scale = max(abs(kronrod.sum()), atol / max(rtol, 1e-300))
            unit_budget = (rtol * scale + atol) / half.sum()
        keep = delta > unit_budget * half
        if depth == max_depth or not keep.any():
            break
        done = ~keep
        value += float(kronrod.sum(where=done))
        err += float(delta.sum(where=done))
        # Each open panel splits into its halves, left halves first, then right ones.
        center, half = center[keep], 0.5 * half[keep]
        center = np.concatenate((center - half, center + half))
        half = np.concatenate((half, half))
    return value + float(kronrod.sum()), err + float(delta.sum())


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
