"""Shared fixtures: canonical figure datasets are expensive enough to cache per session."""

import sys
import threading

import pytest

from dirac_tunneling import figure_datasets
from dirac_tunneling.oracle import random_evanescent_grid
from dirac_tunneling.scenarios import FIGURE_IDS


@pytest.fixture(scope="session")
def figure_data():
    """Dict of all five canonical sweep datasets, computed once."""
    return {which: figure_datasets(which) for which in FIGURE_IDS}


@pytest.fixture(scope="session")
def random_grid_small():
    """2000 random evanescent points for module-level cross checks."""
    return random_evanescent_grid(2000, seed=7)


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
