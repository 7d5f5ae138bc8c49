"""Bulk closed forms on un-broadcast inputs and in blocks: same values, full output shape.

The bulk functions evaluate every intermediate on the shape of the inputs
it depends on instead of broadcasting all four inputs first, and split
large grids into blocks that run on a thread pool.  These tests pin that
neither changes anything observable: each output equals, bit for bit, the
same call on explicitly broadcast inputs, or in one block, and has the
full broadcast shape; errors still locate the offending point in that
full shape; and every public function runs on the calling thread.
"""

import concurrent.futures
import hashlib
import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import dirac_tunneling
from dirac_tunneling import RegimeError, amplitudes, numerics, scenarios, times
from dirac_tunneling.amplitudes import bulk_amplitudes
from dirac_tunneling.oracle import random_evanescent_grid
from dirac_tunneling.times import ConsistencyError, _bulk_nr_phase_time, _bulk_times


def _shapes(n, rows, cols):
    a = np.linspace(0.01, 8.0, n)
    l = np.linspace(0.01, 3000.0, n)
    e = np.linspace(1.05, 2.45, n)
    v = np.linspace(0.85, 2.75, n)
    return {
        "width_sweep": (1.8, 1.5, a, 0.7),
        "separation_sweep": (1.8, 1.5, 0.7, l),
        "energy_sweep": (e, 1.5, 0.7, 0.7),
        "height_sweep": (1.8, v, 0.7, 0.7),
        "outer_grid": (1.8, 1.5, a[:rows, None], l[None, :cols]),
    }


SHAPES = _shapes(400, 40, 30)
# Several blocks each, the last one partial.
LARGE = _shapes(5 * amplitudes._BLOCK + 123, 311, 97)


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
BULK_SHA256 = "0deaeecdca3ec0c403f33531ac17e294905e9b1291ba5aa910a84f5456dc2b0c"


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


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert got[key].dtype == want[key].dtype, key
        assert got[key].flags.writeable == want[key].flags.writeable, key
        assert np.array_equal(got[key], want[key]), key


@pytest.fixture(params=["pool", "one_worker"])
def pool(request, monkeypatch):
    """The block pool as the package sizes it, or patched to a single worker."""
    if request.param == "pool":
        yield amplitudes._executor()
        return
    with concurrent.futures.ThreadPoolExecutor(1) as single:
        monkeypatch.setattr(amplitudes, "_pool", single)
        yield single


@pytest.mark.parametrize("func", [_bulk_times, bulk_amplitudes, _nr])
@pytest.mark.parametrize("case", sorted(LARGE))
def test_blocks_match_one_record(func, case, pool, monkeypatch):
    args = LARGE[case]
    assert math.prod(np.broadcast_shapes(*(np.shape(x) for x in args))) >= amplitudes._BLOCKED_FROM
    got = func(*args)
    monkeypatch.setattr(amplitudes, "_BLOCKED_FROM", math.inf)
    _assert_same(got, func(*args))


def test_blocked_errors_name_the_global_point(monkeypatch):
    n = 5 * amplitudes._BLOCK + 123
    E = np.linspace(1.05, 2.45, n)
    V0 = np.full(n, 1.5)
    V0[-2] = 4.0
    with pytest.raises(RegimeError) as exc:
        bulk_amplitudes(E, V0, 0.7, 0.7)
    assert exc.value.index == n - 2

    # A defect in one point of the last block: the joined check names that point.
    target = n - 7
    orig = times._h2_h3

    def bad_at_target(parts):
        h2, h3 = orig(parts)
        return h2 * np.where(parts.E == E[target], 1.0 + 1e-3, 1.0), h3

    monkeypatch.setattr(times, "_h2_h3", bad_at_target)
    with pytest.raises(ConsistencyError) as exc:
        _bulk_times(E, 1.5, 0.7, 0.7)
    assert f"grid index {target}: E={float(E[target])!r}, V0=1.5, a=0.7, l=0.7" in str(exc.value)


def test_public_functions_run_on_the_calling_thread(monkeypatch):
    # Only private record code runs on the pool; numerics.continue_branch and
    # every other public function stay on the caller's thread.
    public = {id(getattr(mod, name)): f"{mod.__name__}.{name}"
              for mod in (numerics, amplitudes, times) for name in mod.__all__
              if callable(getattr(mod, name)) and not isinstance(getattr(mod, name), type)}
    calls = []

    def recorded(fn, name):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for mod in (dirac_tunneling, numerics, amplitudes, times, scenarios):
        for attr, value in list(vars(mod).items()):
            if id(value) in public:
                monkeypatch.setattr(mod, attr, recorded(value, public[id(value)]))
    record_threads = set()

    class Recorded(amplitudes._ClosedForm):
        def __init__(self, *args):
            record_threads.add(threading.current_thread() is threading.main_thread())
            super().__init__(*args)

    monkeypatch.setattr(amplitudes, "_ClosedForm", Recorded)
    spec = scenarios.SweepSpec(
        swept="width_a", lo=0.01, hi=6.0, points=100_000,
        system=dirac_tunneling.BarrierSystem(V0=1.5, a=0.01, l=0.7), E=1.8, include_nr=True,
    )
    dataset = scenarios.run_sweep(spec)
    assert np.all(np.isfinite(dataset.tau_p_nr))
    names = {name for name, _ in calls}
    assert {"dirac_tunneling.numerics.continue_branch", "dirac_tunneling.times.opaque_limit_times"} <= names
    assert all(on_main for _, on_main in calls), [name for name, on_main in calls if not on_main]
    assert False in record_threads  # the sweep's records were built on the pool


def test_concurrent_first_calls_make_one_pool(monkeypatch):
    # More callers than cores race to create the pool and then share it.
    args = LARGE["energy_sweep"]
    want = bulk_amplitudes(*args)
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            time.sleep(0.01)  # widens the window in which another caller could make a second pool
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(amplitudes, "_pool", None)
    results = [None] * 8
    start = threading.Barrier(len(results))

    def call(i):
        start.wait(timeout=60)
        results[i] = bulk_amplitudes(*args)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        for pool in made:
            pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert len(made) == 1
    for got in results:
        _assert_same(got, want)


def _compare_in_child(grid, want):
    got = bulk_amplitudes(*grid)
    same = got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)
    raise SystemExit(0 if same else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_after_a_large_call_finishes():
    # The child inherits the parent's pool object but none of its threads.
    g = random_evanescent_grid(100_000, seed=11)
    grid = (g["E"], g["V0"], g["a"], g["l"])
    want = bulk_amplitudes(*grid)
    child = multiprocessing.get_context("fork").Process(target=_compare_in_child, args=(grid, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung in a bulk call")
    assert child.exitcode == 0
