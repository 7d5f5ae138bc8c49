"""Shared fixtures: canonical figure datasets are expensive enough to cache per session."""

import sys
import threading

import numpy as np
import pytest

from dirac_tunneling import BarrierSystem, figure_datasets, nonrelativistic_times, scattering_solution, time_report
from dirac_tunneling.amplitudes import bulk_amplitudes
from dirac_tunneling.oracle import random_evanescent_grid
from dirac_tunneling.scenarios import FIGURE_IDS
from dirac_tunneling.times import _bulk_nr_phase_time, _bulk_times


@pytest.fixture(scope="session")
def figure_data():
    """Dict of all five canonical sweep datasets, computed once."""
    return {which: figure_datasets(which) for which in FIGURE_IDS}


@pytest.fixture(scope="session")
def random_grid_small():
    """2000 random evanescent points for module-level cross checks."""
    return random_evanescent_grid(2000, seed=7)


def closed_form_outputs(E, V0, a, l):
    """(one_point, bulk): each closed-form output by name at the points of four 1-d arrays."""
    amp, bulk_times = bulk_amplitudes(E, V0, a, l), _bulk_times(E, V0, a, l)
    assert all(np.array_equal(amp[name], bulk_times[name]) for name in ("magT2", "phi_t"))
    one = {}
    for e, v, w, s in zip(E.tolist(), V0.tolist(), a.tolist(), l.tolist()):
        system = BarrierSystem(V0=v, a=w, l=s)
        sol, rep = scattering_solution(e, system), time_report(e, system)
        nr = nonrelativistic_times(e - 1.0, system)
        for name, value in [
            ("T", sol.T), ("R", sol.R), ("phi_t", sol.phi_t), ("magT2", sol.magT2),
            ("magR2", sol.magR2), ("tau_p", rep.tau_p), ("tau_i", rep.tau_i),
            ("tau_d", rep.tau_d), ("t_free", rep.t_free), ("t_light", rep.t_light),
            ("nr_tau_p", nr.tau_p), ("nr_tau_i", nr.tau_i),
        ]:
            one.setdefault(name, []).append(value)
    one = {name: np.array(values) for name, values in one.items()}
    return one, {**amp, **bulk_times, "nr_tau_p": _bulk_nr_phase_time(E - 1.0, V0, a, l)}


@pytest.fixture(scope="session")
def pin_grid_outputs():
    """`closed_form_outputs` on the raw-bit pin's grid.

    The NR prefactor m/k^2 rounds differently for k**2 (C pow) and k*k at index 876 (and
    949, 982, 986, 1564), so the one-point NR tau_i, which has no bulk row, sees that choice.
    """
    g = random_evanescent_grid(2000, seed=5)
    return closed_form_outputs(g["E"], g["V0"], g["a"], g["l"])


@pytest.fixture(scope="session")
def outputs_at():
    """`closed_form_outputs`, for tests that evaluate grids of their own."""
    return closed_form_outputs


@pytest.fixture
def run_threads():
    """run(work, count): work(i) on ``count`` threads at once, switching as often as possible."""

    def run(work, count):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    return run
