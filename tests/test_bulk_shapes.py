"""Bulk closed forms on un-broadcast inputs: same values, full output shape.

The bulk functions evaluate every intermediate on the shape of the inputs
it depends on instead of broadcasting all four inputs first.  These tests
pin that this changes nothing observable: each output equals, bit for bit,
the same call on explicitly broadcast inputs and has the full broadcast
shape, and errors still locate the offending point in that full shape.
"""

import hashlib

import numpy as np
import pytest

from dirac_tunneling import RegimeError
from dirac_tunneling.amplitudes import bulk_amplitudes
from dirac_tunneling.oracle import random_evanescent_grid
from dirac_tunneling.times import _bulk_nr_phase_time, _bulk_times

_N = 400
_A = np.linspace(0.01, 8.0, _N)
_L = np.linspace(0.01, 3000.0, _N)
_E = np.linspace(1.05, 2.45, _N)

SHAPES = {
    "width_sweep": (1.8, 1.5, _A, 0.7),
    "separation_sweep": (1.8, 1.5, 0.7, _L),
    "energy_sweep": (_E, 1.5, 0.7, 0.7),
    "outer_grid": (1.8, 1.5, _A[:40, None], _L[None, :30]),
}


def _nr(E, V0, a, l):
    return {"tau_p_nr": _bulk_nr_phase_time(np.asarray(E) - 1.0, V0, a, l)}


@pytest.mark.parametrize("func", [_bulk_times, bulk_amplitudes, _nr])
@pytest.mark.parametrize("case", sorted(SHAPES))
def test_unbroadcast_inputs_match_broadcast(func, case):
    args = SHAPES[case]
    full = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in args))
    got, want = func(*args), func(*full)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == full[0].shape, key
        assert got[key].dtype == want[key].dtype, key
        assert got[key].flags.writeable, key
        assert np.array_equal(got[key], want[key]), key


def test_reduced_shape_regime_error_has_full_index():
    with pytest.raises(RegimeError) as exc:
        bulk_amplitudes(1.8, [1.5, 1.5, 3.0], 0.7, 0.7)
    assert exc.value.index == 2


def test_reduced_shape_value_error_names_full_index():
    with pytest.raises(ValueError, match="grid index 2"):
        bulk_amplitudes(1.8, 1.5, [0.7, 0.7, -1.0], 0.7)


# SHA-256 of the float64 bytes of the bulk outputs on a fixed random grid.
# Like the figure CSV pins, it holds for the 80-bit x87 longdouble build.
BULK_SHA256 = "a7a9cf9ddf7adc9fe91524d033291e7621d022964e4123b9eb5e20ba0c38aa9d"


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="hash pinned for the 80-bit longdouble build"
)
def test_random_grid_bytes_pinned():
    g = random_evanescent_grid(10_000, seed=5)
    times = _bulk_times(g["E"], g["V0"], g["a"], g["l"])
    amp = bulk_amplitudes(g["E"], g["V0"], g["a"], g["l"])
    digest = hashlib.sha256()
    for x in (times["tau_p"], times["tau_i"], times["magT2"], times["phi_t"], amp["T"], amp["R"]):
        digest.update(np.ascontiguousarray(x).tobytes())
    assert digest.hexdigest() == BULK_SHA256
