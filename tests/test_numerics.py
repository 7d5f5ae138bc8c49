"""Branch tracking, minimization and the last-point memo."""

import math

import numpy as np
import pytest

from dirac_tunneling.numerics import (
    PhaseTracker,
    _LastPoint,
    continue_branch,
    golden_section_min,
)


def _principal(x, period=math.pi):
    # map to (-period/2, period/2]
    return x - period * np.round(x / period)


def test_phase_tracker_recovers_smooth_ramp():
    true = np.linspace(0.0, 12.0, 400)  # crosses many pi-branch cuts
    tracker = PhaseTracker()
    out = np.array([tracker.update(_principal(v)) for v in true])
    assert np.allclose(out, true, atol=1e-12)


def test_phase_tracker_first_value_is_principal():
    tracker = PhaseTracker()
    assert tracker.update(0.3) == pytest.approx(0.3)
    tracker2 = PhaseTracker(period=2 * math.pi)
    assert tracker2.update(-2.0) == pytest.approx(-2.0)


def test_phase_tracker_reset():
    tracker = PhaseTracker()
    tracker.update(0.1)
    tracker.update(0.2)
    tracker.reset()
    # after reset the next value is taken at face value again
    assert tracker.update(1.0) == pytest.approx(1.0)


def test_phase_tracker_custom_period():
    true = np.linspace(0.0, 30.0, 500)
    tracker = PhaseTracker(period=2 * math.pi)
    out = np.array([tracker.update(_principal(v, 2 * math.pi)) for v in true])
    assert np.allclose(out, true, atol=1e-12)


def test_phase_tracker_rejects_bad_period():
    with pytest.raises(ValueError):
        PhaseTracker(period=0.0)
    with pytest.raises(ValueError):
        PhaseTracker(period=-1.0)


def test_continue_branch_matches_tracker():
    true = np.linspace(-4.0, 9.0, 300)
    folded = _principal(true)
    tracker = PhaseTracker()
    threaded = np.array([tracker.update(v) for v in folded])
    assert np.array_equal(continue_branch(folded), threaded)


@pytest.mark.parametrize("steps", [[1.0, -1.0, 1.0], [3.0, -3.0, 3.0, 3.0], [1.0, 3.0, -1.0, -3.0]])
def test_continue_branch_half_period_ties(steps):
    # Steps of an odd number of half periods are ties, rounded to even: +-1.0
    # stays, +-3.0 becomes -+1.0.  np.unwrap maps +-3.0 to +-1.0 instead.
    values = np.cumsum([0.25] + steps)
    tracker = PhaseTracker(period=2.0)
    threaded = np.array([tracker.update(v) for v in values.tolist()])
    continued = continue_branch(values, period=2.0)
    assert np.array_equal(continued, threaded)
    assert np.diff(continued).tolist() == [s - 2.0 * round(s / 2.0) for s in steps]


def test_continue_branch_along_axis_0_keeps_dtype():
    true = np.linspace(-4.0, 9.0, 60, dtype=np.longdouble).reshape(20, 3)
    continued = continue_branch(_principal(true))
    assert continued.dtype == np.longdouble
    for column in range(3):
        assert np.array_equal(continued[:, column], continue_branch(_principal(true[:, column])))
    assert np.allclose(continued - continued[0], true - true[0], atol=1e-15)
    assert continue_branch([0.0, 3.0]).dtype == np.float64


def test_golden_section_min_quadratic():
    x = golden_section_min(lambda x: (x - 1.3) ** 2, 0.0, 2.0, tol=1e-12)
    assert x == pytest.approx(1.3, abs=1e-8)


def test_golden_section_min_cos():
    # Location accuracy saturates near sqrt(eps): within ~2e-8 of pi the
    # cosine is flat to machine epsilon, so comparisons there are noise.
    x = golden_section_min(math.cos, 2.0, 4.0, tol=1e-12)
    assert x == pytest.approx(math.pi, abs=5e-8)


def test_golden_section_min_tight_bracket():
    x = golden_section_min(lambda x: x * x, 0.5, 0.5 + 1e-14, tol=1e-12)
    assert 0.5 <= x <= 0.5 + 1e-13


def _wavy(x):
    # several local minima, so brackets step left and right in different orders
    return np.cos(3.0 * x) + 0.1 * x


def _assert_matches_scalar_calls(a, b, tol):
    got = golden_section_min(_wavy, a, b, tol=tol)
    a, b = np.broadcast_arrays(a, b)
    assert got.shape == a.shape
    for x, lo, hi in zip(got.flat, a.flat, b.flat):
        assert x == golden_section_min(_wavy, float(lo), float(hi), tol=tol)


def test_golden_section_min_reversed_brackets():
    _assert_matches_scalar_calls(np.array([4.0, 2.0, 1.5]), np.array([2.0, 4.0, 0.5]), 1e-11)


def test_golden_section_min_tight_bracket_among_wide_ones():
    a = np.array([0.5, 2.0, 0.0])
    b = np.array([0.5 + 1e-14, 4.0, 2.0])
    _assert_matches_scalar_calls(a, b, 1e-12)
    assert golden_section_min(_wavy, a, b, tol=1e-12)[0] == 0.5 * (0.5 + (0.5 + 1e-14))


def test_golden_section_min_brackets_of_different_widths():
    # widths over four decades: step counts from 26 to 45
    a = np.array([2.0, 1.9, 1.95, 1.99, 1.999])
    _assert_matches_scalar_calls(a, a + np.array([2.0, 0.4, 0.2, 0.02, 2e-4]), 1e-9)


def test_golden_section_min_two_dimensional_brackets():
    a = np.linspace(0.0, 3.0, 6).reshape(2, 3)
    _assert_matches_scalar_calls(a, a + np.array([[1.0], [0.3]]), 1e-10)


def test_golden_section_min_one_call_per_step():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return _wavy(x)

    a = np.array([0.0, 1.0, 2.0])
    golden_section_min(f, a, a + np.array([1.0, 0.1, 0.01]), tol=1e-8)
    steps = max(1, math.ceil(math.log(1e-8 / 1.0) / math.log((math.sqrt(5.0) - 1.0) / 2.0)))
    assert calls == [(3,)] * (2 + steps)
    calls.clear()
    golden_section_min(f, a, a + 1e-14, tol=1e-12)
    assert calls == []


def test_golden_section_min_return_types():
    assert type(golden_section_min(_wavy, 0.0, 2.0)) is float
    assert type(golden_section_min(_wavy, 0.5, 0.5, tol=1e-12)) is float
    out = golden_section_min(_wavy, np.array([0.0]), np.array([2.0]))
    assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert golden_section_min(_wavy, np.array([]), np.array([])).shape == (0,)


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
