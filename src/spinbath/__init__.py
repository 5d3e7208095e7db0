"""Decoherence of two electron-spin qubits coupled to nuclear-spin baths.

Closed-form reduced dynamics for separate baths (no exchange) and for a
common bath (symmetric and asymmetric hyperfine couplings), short-time
decoherence timescales with an optimizer over pure states, and a dense
full-Hilbert-space oracle that every analytic path is checked against.
"""

__version__ = "0.1.0"

from .bath import (
    BathDistribution,
    BathSpecError,
    bath_from_config,
    delta_distribution,
    gaussian_approx,
    spin_grid,
    unpolarized_exact,
)
from .common import (
    CommonBathSystem,
    apply_channel,
    channel_functions,
    decoherence_rate_sq,
    short_time_decoherence_time,
    singlet_mixedness,
    singlet_survival,
    singlet_survival_large_j,
    tensor_invariant_r,
    transverse_longitudinal_rates,
)
from .optimize import (
    ScanResult,
    coupling_overlap,
    decoherence_rate_inhomogeneous,
    decoherence_rate_pure,
    gaussian_dot_couplings,
    optimal_gamma,
    rate_scale,
    scan_optimal_state,
)
from .oracle import FullSystem, build, evolve_reduced
from .separate import (
    SeparateBathSystem,
    decay_factors,
    short_time_concurrence_time,
    short_time_decoherence_time as separate_decoherence_time,
    sudden_death_time,
)
from .states import (
    InvalidStateError,
    TwoQubitState,
    concurrence,
    concurrence_state,
    decoherence_measure,
    density_to_state,
    make_named_state,
    purity,
    state_from_vector,
    state_to_density,
    validate_state,
)
from .timeseries import TimeSeries, read_csv
