"""Random transvection walk on invertible binary matrices.

The package simulates the walk whose step adds one uniformly chosen row to
another modulo 2, analyzes its mixing exactly at small dimension, verifies
the functional inequalities behind its logarithmic-Sobolev analysis,
estimates mixing-time bounds, probes the cutoff of its column projections
at large dimension, and simulates a timed challenge-response protocol
whose security premise is the walk's short honest-evaluation cost.
"""

from .chain import (
    Trajectory,
    load_trajectory,
    replay,
    run,
    save_trajectory,
)
from .diagnostics import (
    DEFAULT_CUTOFF_GRID,
    STATISTICS,
    CutoffPoint,
    NoBracketError,
    TvEstimate,
    crossover_locator,
    cutoff_experiment,
    mc_state_frequencies,
    statistic_tv,
)
from .exactgroup import (
    GroupTable,
    NonConvergentError,
    SpectralReport,
    TransitionStructure,
    analyze,
    build_transition,
    distribution_at,
    enumerate_group,
    group_order,
    l2_distance,
    mixing_curve,
    mixing_times,
    order_ratio,
    spectral_report,
    tv_distance,
)
from .funineq import (
    SUITE_NAMES,
    LsiEstimate,
    SuiteResult,
    counting_lower_bound,
    dirichlet_form,
    entropy_sq,
    estimate_lsi_constant,
    mixing_bound,
    run_suite,
    variance,
)
from .gf2core import (
    BitMatrix,
    BitVector,
    OpCount,
    derive_rng,
    is_invertible,
    load_matrix,
    matvec,
    matvec_cost,
    rank,
    save_matrix,
)
from .protocol import (
    KeyPair,
    Response,
    VerifyResult,
    keygen,
    respond_dishonest,
    respond_honest,
    separation_report,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gf2core
    "BitMatrix",
    "BitVector",
    "OpCount",
    "derive_rng",
    "is_invertible",
    "load_matrix",
    "matvec",
    "matvec_cost",
    "rank",
    "save_matrix",
    # chain
    "Trajectory",
    "load_trajectory",
    "replay",
    "run",
    "save_trajectory",
    # exactgroup
    "GroupTable",
    "NonConvergentError",
    "SpectralReport",
    "TransitionStructure",
    "analyze",
    "build_transition",
    "distribution_at",
    "enumerate_group",
    "group_order",
    "l2_distance",
    "mixing_curve",
    "mixing_times",
    "order_ratio",
    "spectral_report",
    "tv_distance",
    # funineq
    "SUITE_NAMES",
    "LsiEstimate",
    "SuiteResult",
    "counting_lower_bound",
    "dirichlet_form",
    "entropy_sq",
    "estimate_lsi_constant",
    "mixing_bound",
    "run_suite",
    "variance",
    # diagnostics
    "DEFAULT_CUTOFF_GRID",
    "STATISTICS",
    "CutoffPoint",
    "NoBracketError",
    "TvEstimate",
    "crossover_locator",
    "cutoff_experiment",
    "mc_state_frequencies",
    "statistic_tv",
    # protocol
    "KeyPair",
    "Response",
    "VerifyResult",
    "keygen",
    "respond_dishonest",
    "respond_honest",
    "separation_report",
    "verify",
]
