"""Branch continuation and the last-point memo."""

import math

import numpy as np
import pytest

from dirac_tunneling.numerics import _LastPoint, continue_branch


def _principal(x, period=math.pi):
    # map to (-period/2, period/2]
    return x - period * np.round(x / period)


def _one_at_a_time(values, period):
    """The branch rule applied value by value in Python floats: the reference for continue_branch."""
    out, jumps = [], 0
    for i, value in enumerate(values):
        if i:
            jumps += round((value - values[i - 1]) / period)
        out.append(value - period * jumps)
    return np.array(out)


def test_phase_tracker_recovers_smooth_ramp():
    true = np.linspace(0.0, 12.0, 400)  # crosses many pi-branch cuts
    assert np.allclose(continue_branch(_principal(true)), true, atol=1e-12)


def test_phase_tracker_first_value_is_principal():
    assert continue_branch([0.3, 0.4])[0] == 0.3
    assert continue_branch([-2.0, -1.0], period=2 * math.pi)[0] == -2.0


def test_phase_tracker_custom_period():
    true = np.linspace(0.0, 30.0, 500)
    out = continue_branch(_principal(true, 2 * math.pi), period=2 * math.pi)
    assert np.allclose(out, true, atol=1e-12)


def test_continue_branch_matches_tracker():
    folded = _principal(np.linspace(-4.0, 9.0, 300))
    assert np.array_equal(continue_branch(folded), _one_at_a_time(folded.tolist(), math.pi))


@pytest.mark.parametrize("steps", [[1.0, -1.0, 1.0], [3.0, -3.0, 3.0, 3.0], [1.0, 3.0, -1.0, -3.0]])
def test_continue_branch_half_period_ties(steps):
    # Steps of an odd number of half periods are ties, rounded to even: +-1.0
    # stays, +-3.0 becomes -+1.0.  np.unwrap maps +-3.0 to +-1.0 instead.
    values = np.cumsum([0.25] + steps)
    continued = continue_branch(values, period=2.0)
    assert np.array_equal(continued, _one_at_a_time(values.tolist(), 2.0))
    assert np.diff(continued).tolist() == [s - 2.0 * round(s / 2.0) for s in steps]


def test_continue_branch_along_axis_0_keeps_dtype():
    true = np.linspace(-4.0, 9.0, 60, dtype=np.longdouble).reshape(20, 3)
    continued = continue_branch(_principal(true))
    assert continued.dtype == np.longdouble
    for column in range(3):
        assert np.array_equal(continued[:, column], continue_branch(_principal(true[:, column])))
    assert np.allclose(continued - continued[0], true - true[0], atol=1e-15)
    assert continue_branch([0.0, 3.0]).dtype == np.float64


def test_last_point_keeps_one_value_keyed_on_float_bits():
    calls = []

    def compute(*point):
        calls.append(point)
        if point[0] < 0.0:
            raise ValueError("bad point")
        return object()

    memo = _LastPoint()
    kept = memo(compute, 1.0, 2.0, 0.0, 3.0, 1.0)
    assert memo(compute, 1.0, 2.0, 0.0, 3.0, np.float64(1.0)) is kept
    assert len(calls) == 1
    # Other inputs neither read nor replace the kept pair; a raising call keeps nothing.
    assert memo(compute, 1.0, 2.0, 0.0, 3.0, np.asarray(1.0)) is not kept
    assert memo(compute, 1, 2.0, 0.0, 3.0, 1.0) is not kept
    with pytest.raises(ValueError):
        memo(compute, -1.0, 2.0, 0.0, 3.0, 1.0)
    assert memo(compute, 1.0, 2.0, 0.0, 3.0, 1.0) is kept
    # -0.0 is another point, and it replaces the pair.
    minus = memo(compute, 1.0, 2.0, -0.0, 3.0, 1.0)
    assert minus is not kept
    assert memo(compute, 1.0, 2.0, -0.0, 3.0, 1.0) is minus
    assert memo(compute, 1.0, 2.0, 0.0, 3.0, 1.0) is not kept
    assert len(calls) == 6
