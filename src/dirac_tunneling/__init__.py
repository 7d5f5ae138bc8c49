"""Tunneling times of a Dirac particle through two rectangular barriers.

Closed-form scattering amplitudes and time scales (phase, dwell and
self-interference times) for a relativistic particle meeting two
identical electrostatic barriers, together with independent numerical
oracles (linear-solve amplitudes, phase time from the solve's exact
energy derivative, dwell time from the exact integral of the solve's
density), sweep/resonance drivers and canonical datasets.  Natural
units hbar = c = 1 throughout.
"""

from .kinematics import (
    BarrierSystem,
    KinematicPoint,
    Regime,
    RegimeError,
    alpha,
    classify_regime,
    decay_q,
    kinematic_point,
    wavenumber_k,
)
from .numerics import continue_branch
from .amplitudes import (
    RegionCoefficients,
    ScatteringSolution,
    bulk_amplitudes,
    reflection,
    region_coefficients,
    scattering_solution,
    transmission,
    transmission_phase,
)
from .times import (
    AppendixTerms,
    ConsistencyError,
    TimeReport,
    appendix_terms,
    dwell_time,
    free_transit_time,
    light_transit_time,
    nonrelativistic_times,
    opaque_limit_times,
    phase_time_closed,
    self_interference_delay,
    time_report,
)
from .oracle import (
    FieldSample,
    default_flux_samples,
    dwell_integral,
    flux_profile,
    numeric_phase_time,
    random_evanescent_grid,
    single_barrier_amplitudes,
    tm_solve,
)
from .scenarios import (
    FIGURE_IDS,
    SweepDataset,
    SweepSpec,
    figure_datasets,
    figure_spec,
    find_resonances,
    run_sweep,
)
from .cli import emit_csv, emit_plot_script, read_csv

__version__ = "0.1.0"

__all__ = [
    "AppendixTerms",
    "BarrierSystem",
    "ConsistencyError",
    "FIGURE_IDS",
    "FieldSample",
    "KinematicPoint",
    "Regime",
    "RegimeError",
    "RegionCoefficients",
    "ScatteringSolution",
    "SweepDataset",
    "SweepSpec",
    "TimeReport",
    "alpha",
    "appendix_terms",
    "bulk_amplitudes",
    "classify_regime",
    "continue_branch",
    "decay_q",
    "default_flux_samples",
    "dwell_integral",
    "dwell_time",
    "emit_csv",
    "emit_plot_script",
    "figure_datasets",
    "figure_spec",
    "find_resonances",
    "flux_profile",
    "free_transit_time",
    "kinematic_point",
    "light_transit_time",
    "nonrelativistic_times",
    "numeric_phase_time",
    "opaque_limit_times",
    "phase_time_closed",
    "random_evanescent_grid",
    "read_csv",
    "reflection",
    "region_coefficients",
    "run_sweep",
    "scattering_solution",
    "self_interference_delay",
    "single_barrier_amplitudes",
    "time_report",
    "tm_solve",
    "transmission",
    "transmission_phase",
    "wavenumber_k",
]
