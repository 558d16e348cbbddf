"""Distortion-aware downlink power allocation for massive MIMO OFDM.

The package models a multi-user downlink in which every base-station
power amplifier clips (or smoothly compresses) the OFDM waveform.  Via
the Bussgang decomposition the nonlinearity splits into a linear gain
and an uncorrelated distortion term, both functions of the input
back-off, which couples every user's rate to the single total transmit
power.  On top of that model the package provides:

* closed-form effective-SINDR and rate evaluation for zero-forcing and
  maximum-ratio precoding (``metrics``),
* amplifier back-off/gain/distortion curves for ideally clipping and
  smoothly saturating amplifiers (``pa_model``),
* a bisection solver for the optimal total power with derivative-sign
  oracle and Lambert-W bracket (``dapa``),
* a water-filling solver for the per-user power fractions (``fpda``),
* the alternating optimizer combining the two plus fixed-back-off
  baselines (``allocator``),
* cell geometry / path-loss scenario generation (``scenario``),
* a link-level OFDM simulator that validates the analytic distortion
  model against measured signal-to-distortion ratios (``linklevel``),
* finite-difference curvature probes of the per-user power objective
  (``nonconvexity``),
* Monte-Carlo benchmarking with CCDF summaries and CSV/JSON output
  (``bench``) and a command-line front end (``cli``).
"""

from dapalloc.numerics import (
    ConvergenceError,
    erfc,
    erfcx,
    lambert_w0_of_log,
    integrate_semi_infinite,
)
from dapalloc.pa_model import (
    PaModel,
    PaOperatingPoint,
    input_backoff,
    bussgang_gain_soft,
    distortion_coeff_soft,
    bussgang_gain_rapp,
    distortion_coeff_rapp,
)
from dapalloc.metrics import (
    SystemConfig,
    UeSet,
    Allocation,
    EvalReport,
    operating_point_at,
    sindr,
    rates,
    evaluate,
    csi_error_factor,
)
from dapalloc.dapa import (
    DapaResult,
    SolverError,
    power_balance,
    root_bounds,
    sum_rate_derivative,
    solve_dapa,
)
from dapalloc.fpda import (
    breakpoints,
    solve_fpda,
)
from dapalloc.allocator import (
    AoTrace,
    alternating_optimize,
    ref_e,
    ref_fpda,
    dapa_e,
    ALGORITHMS,
    REF_BACKOFF_DB,
)
from dapalloc.scenario import (
    ScenarioConfig,
    path_loss_db,
    noise_power_w,
    drop_ues,
    homogeneous_sweep,
    two_ue_grid,
)

__version__ = "0.1.0"
