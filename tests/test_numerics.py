"""Branch tracking, differentiation, quadrature, and minimization utilities."""

import math

import numpy as np
import pytest

from dirac_tunneling.numerics import (
    PhaseTracker,
    adaptive_simpson,
    continue_branch,
    golden_section_min,
    phase_derivative,
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
    assert np.allclose(continue_branch(folded), threaded, atol=1e-12)


def test_phase_derivative_plain_function():
    # no branch folding: derivative of sin at 0.4
    d = phase_derivative(math.sin, 0.4, 1e-4, period=None)
    assert d == pytest.approx(math.cos(0.4), rel=1e-10)


def test_phase_derivative_through_branch_cut():
    # f returns a principal value; unwrapped slope is 0.7
    f = lambda x: math.remainder(0.7 * x, math.pi)
    x0 = math.pi / 1.4  # 0.7 x0 = pi/2, right at the fold
    d = phase_derivative(f, x0, 1e-3)
    assert d == pytest.approx(0.7, rel=1e-9)


def test_phase_derivative_richardson_order():
    # error should drop ~16x when h drops 2x for a smooth quartic-limited rule
    f = math.exp
    e1 = abs(phase_derivative(f, 0.0, 1e-2, period=None) - 1.0)
    e2 = abs(phase_derivative(f, 0.0, 5e-3, period=None) - 1.0)
    assert e2 < e1 / 8.0


def test_adaptive_simpson_smooth():
    val, err = adaptive_simpson(math.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)
    assert err < 1e-9


def test_adaptive_simpson_kink():
    val, _ = adaptive_simpson(lambda x: abs(x - 0.3), 0.0, 1.0, rtol=1e-10)
    assert val == pytest.approx(0.29, rel=1e-9)


def test_adaptive_simpson_error_estimate_honest():
    val, err = adaptive_simpson(lambda x: math.exp(-x) * math.cos(8 * x), 0.0, 3.0,
                                rtol=1e-8)
    exact = (math.exp(-3.0) * (8 * math.sin(24.0) - math.cos(24.0)) + 1.0) / 65.0
    assert abs(val - exact) < 10.0 * max(err, 1e-15)


def test_adaptive_simpson_empty_interval():
    assert adaptive_simpson(math.sin, 1.0, 1.0) == (0.0, 0.0)
    assert adaptive_simpson(math.sin, 2.0, 1.0) == (0.0, 0.0)


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
