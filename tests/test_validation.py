"""One validation in front of every closed form: scalar and bulk paths agree."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_tunneling import (
    BarrierSystem,
    RegimeError,
    amplitudes,
    bulk_amplitudes,
    time_report,
    times,
)
from dirac_tunneling.times import _bulk_nr_phase_time


def _scalar_entries():
    """Every public function of amplitudes/times taking (E or E_kin, system)."""
    for module in (amplitudes, times):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                params = list(inspect.signature(fn).parameters)[:2]
                if params in (["E", "system"], ["E_kin", "system"]):
                    yield fn


def test_scalar_entries_found():
    names = {fn.__name__ for fn in _scalar_entries()}
    assert {"transmission", "region_coefficients", "time_report",
            "nonrelativistic_times", "opaque_limit_times"} <= names


@pytest.mark.parametrize("fn", list(_scalar_entries()), ids=lambda fn: fn.__name__)
def test_scalar_functions_reject_nan_energy(fn):
    with pytest.raises(ValueError):
        fn(math.nan, BarrierSystem(V0=1.5, a=0.7, l=0.7))


@pytest.mark.parametrize("a", [-1.0, math.inf, math.nan])
def test_bulk_rejects_bad_width(a):
    with pytest.raises(ValueError) as exc:
        bulk_amplitudes(1.8, 1.5, a, 0.7)
    assert not isinstance(exc.value, RegimeError)


def test_bulk_error_locates_first_bad_point():
    with pytest.raises(ValueError, match="grid index 1"):
        bulk_amplitudes([1.8, 1.8, 0.4], 1.5, [0.7, -2.0, 0.7], 0.7)
    with pytest.raises(RegimeError) as exc:
        bulk_amplitudes([1.8, 1.8, 0.4], 1.5, 0.7, 0.7)
    assert exc.value.index == 2


def test_nr_window_error_names_the_first_bad_point():
    with pytest.raises(ValueError) as exc:
        _bulk_nr_phase_time([0.5, 0.9, 2.0, 3.0], 1.5, 0.7, 0.7)
    assert exc.value.index == 2
    assert str(exc.value) == (
        "nonrelativistic window requires 0 < E_kin < V0 (including the derivative "
        "stencil) and finite widths a, l >= 0 (grid index 2: E_kin=2.0, V0=1.5, a=0.7, l=0.7)"
    )
    with pytest.raises(ValueError, match=r"\(E_kin=1.6, V0=1.5, a=0.7, l=0.7\)") as exc:
        _bulk_nr_phase_time(1.6, 1.5, 0.7, 0.7)
    assert exc.value.index is None


@pytest.mark.parametrize("width", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("which", ["a", "l"])
def test_nr_rejects_bad_width(which, width):
    widths = {"a": 0.7, "l": 0.7, which: [0.7, width]}
    with pytest.raises(ValueError, match=f"grid index 1: .*{which}={width!r}"):
        _bulk_nr_phase_time(0.5, 1.5, widths["a"], widths["l"])


_SPECIAL = [math.nan, math.inf, -math.inf]


@st.composite
def _points(draw):
    """(E, V0, a, l) around the window, its exact edges and non-finite values."""
    E = draw(st.sampled_from([1.0, *_SPECIAL]) | st.floats(0.5, 3.5))
    V0 = draw(st.sampled_from([E - 1.0, E + 1.0, 0.0, *_SPECIAL]) | st.floats(-0.5, 4.5))
    width = st.sampled_from([0.0, -0.0, *_SPECIAL]) | st.floats(-1.0, 5.0)
    return E, V0, draw(width), draw(width)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points())
def test_scalar_and_bulk_accept_the_same_points(point):
    E, V0, a, l = point
    scalar = _accepts(lambda: time_report(E, BarrierSystem(V0=V0, a=a, l=l)))
    bulk = _accepts(lambda: bulk_amplitudes(E, V0, a, l))
    assert scalar == bulk
