"""Parameter sweeps, resonance search, and canonical datasets.

A sweep varies exactly one of the barrier width a, the separation l, or
the energy E over a uniform grid, evaluates amplitudes and times at every
point with the vectorized closed forms, and applies phase-branch
continuation as a sequential post-pass over the sorted grid (the only
order-dependent step, so datasets are deterministic).

Five canonical datasets, named 2A, 2B, 2C, 3A and 3B, bundle the
parameter sets used throughout the test suite and the demos:

====  =====  =====  ===============  ==========================
id    E      V0     fixed            swept
====  =====  =====  ===============  ==========================
2A    1.8    1.5    l = 0.7          a over [0.01, 6], 600 pts
2B    1.46   2.19   l = 0.7          a over [0.01, 6], 600 pts
2C    1.01   0.018  l = 0.7          a over [0.01, 6], 600 pts
3A    1.8    1.5    a = 0.7          l over [0.01, 10], 600 pts
3B    1.8    1.5    a = 3.0          l over [0.01, 10], 600 pts
====  =====  =====  ===============  ==========================

The width sweeps carry the nonrelativistic comparison curve; all five
carry the saturated (opaque-limit) reference constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import BarrierSystem, RegimeError, _validate, regime_error
from .numerics import continue_branch
from .amplitudes import _ClosedForm, _extended_kinematics
from .times import _bulk_nr_phase_time, _bulk_times, opaque_limit_times

__all__ = [
    "FIGURE_IDS",
    "SweepDataset",
    "SweepSpec",
    "figure_datasets",
    "figure_spec",
    "find_resonances",
    "run_sweep",
]

_AXES = ("width_a", "separation_l", "energy_E")


@dataclass(frozen=True)
class SweepSpec:
    """Specification of a one-parameter sweep.

    ``system`` supplies the fixed barrier parameters; the component
    selected by ``swept`` is ignored and replaced by the grid.  For an
    energy sweep, ``E`` is likewise ignored.
    """

    swept: str
    lo: float
    hi: float
    points: int
    system: BarrierSystem
    E: float
    include_nr: bool = False
    include_opaque_reference: bool = True

    def __post_init__(self) -> None:
        if self.swept not in _AXES:
            raise ValueError(f"swept must be one of {_AXES}, got {self.swept!r}")
        if not self.lo < self.hi:
            raise ValueError(f"sweep range needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.swept != "energy_E" and self.lo < 0.0:
            raise ValueError(f"{self.swept} cannot be negative, got lo={self.lo}")
        if self.points < 2:
            raise ValueError(f"a sweep needs at least 2 points, got {self.points}")


@dataclass(frozen=True)
class SweepDataset:
    """Evaluated sweep: one row per grid point.

    ``phi_t`` is the branch-continued transmission phase (not emitted to
    CSV, but kept for continuity diagnostics).  ``tau_p_nr`` is present
    only when the spec asked for the nonrelativistic curve, and the
    opaque constants only when the reference was requested on a fixed-
    energy sweep.
    """

    spec: SweepSpec
    swept: np.ndarray
    tau_p: np.ndarray
    tau_d: np.ndarray
    tau_i: np.ndarray
    t_free: np.ndarray
    t_light: np.ndarray
    magT2: np.ndarray
    phi_t: np.ndarray
    tau_p_nr: np.ndarray | None = None
    tau_p_opaque: float | None = None
    tau_d_opaque: float | None = None

    def __len__(self) -> int:
        return int(self.swept.size)


def _sweep_arrays(spec: SweepSpec, grid: np.ndarray):
    base = spec.system
    if spec.swept == "width_a":
        return spec.E, base.V0, grid, base.l
    if spec.swept == "separation_l":
        return spec.E, base.V0, base.a, grid
    return grid, base.V0, base.a, base.l


def run_sweep(spec: SweepSpec) -> SweepDataset:
    """Evaluate a sweep on its uniform grid.

    Every grid point is validated up front; the first point outside the
    evanescent window aborts the sweep with its location in the message.
    """
    grid = np.linspace(spec.lo, spec.hi, spec.points)
    E, V0, a, l = _sweep_arrays(spec, grid)
    mass = spec.system.mass

    try:
        data = _bulk_times(E, V0, a, l, mass)
    except RegimeError as exc:
        i = exc.index
        raise regime_error(
            exc.regime, f"sweep point {spec.swept}={float(grid[i])!r} (index {i})", i
        ) from None
    phi = continue_branch(data["phi_t"])

    tau_p_nr = None
    if spec.include_nr:
        # Inside the NR window wherever _bulk_times accepted the point: the same tests on the same doubles.
        tau_p_nr = _bulk_nr_phase_time(np.asarray(E, dtype=float) - mass, V0, a, l, mass)

    tau_p_opaque = None
    tau_d_opaque = None
    if spec.include_opaque_reference and spec.swept != "energy_E":
        # The saturated values depend only on (E, V0); undefined when E sweeps.
        reference = opaque_limit_times(spec.E, spec.system)
        tau_p_opaque = reference.tau_p
        tau_d_opaque = reference.tau_d

    return SweepDataset(
        spec=spec,
        swept=grid,
        tau_p=data["tau_p"],
        tau_d=data["tau_d"],
        tau_i=data["tau_i"],
        t_free=data["t_free"],
        t_light=data["t_light"],
        magT2=data["magT2"],
        phi_t=phi,
        tau_p_nr=tau_p_nr,
        tau_p_opaque=tau_p_opaque,
        tau_d_opaque=tau_d_opaque,
    )


def find_resonances(
    system: BarrierSystem,
    E: float,
    l_range: tuple[float, float],
    scan_points: int = 1024,
) -> list[tuple[float, float, float, float]]:
    """Locate resonances (zeros of R) in the separation l.

    Scans |beta_hat| on a uniform grid of ``scan_points`` (at least 3) over
    ``l_range`` and places one resonance at every strict interior minimum
    of the scan, then evaluates the times at all of them in one bulk call.
    Returns (l, |R|, tau_p, tau_d) per resonance, ordered in l.  At a
    resonance R = 0, so tau_i vanishes and tau_p = tau_d there.  |R|^2 =
    beta_hat^2 / (e^{-4qa} + beta_hat^2) has the same strict minima, but
    rounds to 1.0 between the dips once qa exceeds about 9.

    R vanishes with beta, which in l is a pure sinusoid C sin(kl - theta):
    its zeros solve tan(kl) = -2 alpha coth(qa) / (1 - alpha^2) and are
    spaced pi/k.  From a scan minimum g one step,
    l* = g - arctan(beta_hat / dbeta_hat) / k in extended precision,
    lands exactly on the zero nearest g; l* is rounded to double once.
    That zero lies inside the bracket (g - h, g + h) of the grid spacing h:
    between two zeros |beta| is concave, so a strict minimum of three
    samples needs a zero between the outer two, and the nearest zero is
    no farther from g than that one.

    The inputs are validated once, on the scan grid, and the kinematics
    (k, q, alpha) are computed once for the scan and the minima.

    A resonance is found only when the grid samples its dip as a strict
    interior minimum; dips narrower than the grid spacing are missed
    (over l in [0.01, 0.01 + 1429 pi/k] at E = 1.8, V0 = 1.5, a = 0.7 the
    default grid finds 406 of the 1429).

    The listed |R| is that at the double nearest the zero, about
    e^{2qa} k |d beta_hat / d(kl)| ulp(l) / 2: 1e-16 to 1e-12 at qa = 0.67
    with l up to 3000, 1e-5 to 1e-4 at qa = 13.4 with l < 10.

    Degenerate systems with a = 0 have R identically zero: |beta_hat| then
    has no strict minima and the result is an empty list.
    """
    lo, hi = float(l_range[0]), float(l_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"l_range must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"l_range needs lo < hi, got [{lo}, {hi}]")
    if lo < 0.0:
        raise ValueError(f"separation cannot be negative, got lo={lo}")
    if scan_points < 3:
        raise ValueError(f"a resonance scan needs at least 3 points, got scan_points={scan_points}")
    V0, a, mass = system.V0, system.a, system.mass
    grid = np.linspace(lo, hi, scan_points)
    _validate(E, V0, a, grid, mass)
    kinematics = _extended_kinematics(E, V0, mass)

    def record(l):
        return _ClosedForm(E, V0, a, l, mass, *kinematics)

    beta = np.abs(record(grid).beta_hat)
    i = 1 + np.flatnonzero((beta[1:-1] < beta[:-2]) & (beta[1:-1] < beta[2:]))
    minima = record(grid[i])
    l_star = np.float64(minima.l - np.arctan(minima.beta_hat / minima.dbeta_hat) / minima.k)
    times = _bulk_times(E, V0, a, l_star, mass, magR2=True)
    columns = (l_star, np.sqrt(times["magR2"]), times["tau_p"], times["tau_d"])
    return list(zip(*(column.tolist() for column in columns)))


FIGURE_IDS = ("2A", "2B", "2C", "3A", "3B")

_FIGURES = {
    "2A": dict(E=1.8, V0=1.5, a=None, l=0.7, swept="width_a", lo=0.01, hi=6.0, nr=True),
    "2B": dict(E=1.46, V0=2.19, a=None, l=0.7, swept="width_a", lo=0.01, hi=6.0, nr=True),
    "2C": dict(E=1.01, V0=0.018, a=None, l=0.7, swept="width_a", lo=0.01, hi=6.0, nr=True),
    "3A": dict(E=1.8, V0=1.5, a=0.7, l=None, swept="separation_l", lo=0.01, hi=10.0, nr=False),
    "3B": dict(E=1.8, V0=1.5, a=3.0, l=None, swept="separation_l", lo=0.01, hi=10.0, nr=False),
}
_FIGURE_POINTS = 600


def figure_spec(which: str) -> SweepSpec:
    """The canonical SweepSpec behind a dataset id (case-insensitive)."""
    key = str(which).upper()
    if key not in _FIGURES:
        raise ValueError(f"unknown dataset id {which!r}; choose from {FIGURE_IDS}")
    cfg = _FIGURES[key]
    system = BarrierSystem(
        V0=cfg["V0"],
        a=cfg["lo"] if cfg["a"] is None else cfg["a"],
        l=cfg["lo"] if cfg["l"] is None else cfg["l"],
    )
    return SweepSpec(
        swept=cfg["swept"],
        lo=cfg["lo"],
        hi=cfg["hi"],
        points=_FIGURE_POINTS,
        system=system,
        E=cfg["E"],
        include_nr=cfg["nr"],
        include_opaque_reference=True,
    )


def figure_datasets(which: str) -> SweepDataset:
    """Evaluate one of the canonical datasets (2A, 2B, 2C, 3A, 3B)."""
    return run_sweep(figure_spec(which))
