"""bumplab: a numerical workbench for two-weight bump conditions and
compactness probes of commutators of Calderon-Zygmund operators.

The package discretizes the line to a uniform grid on [-L, L], implements
Orlicz (logarithmically bumped) averages, the A_p and two-weight bump
constants, the Hardy-Littlewood maximal operator, smoothly truncated
singular integrals and their commutators, and probes compactness of
[b, T_eta] empirically through Kolmogorov-Riesz condition values and
singular-value decay.
"""

from .grid import (
    Cube,
    CubeFamily,
    Grid,
    GridFunction,
    average,
    constant,
    cube_family,
    dyadic_cubes,
    gaussian,
    haar,
    indicator,
    log_spike,
    lp_norm_weighted,
    make_grid,
    power_weight,
    shift,
    shifted_dyadic_cubes,
    smooth_bump,
)
from .orlicz import (
    OrliczAverage,
    OrliczConvergenceError,
    OrliczOverflowError,
    YoungFunction,
    bmo_norm,
    orlicz_average,
    young_eval,
    young_inverse_at_one,
)
from .weights import (
    BumpReport,
    BumpSpec,
    WeightPair,
    ap_constant,
    bump_constant,
    iterate_maximal,
    two_weight_ap,
)
from .operators import (
    KERNEL_CONSTANT,
    TruncationSpec,
    apply_truncated,
    commutator,
    cutoff_psi,
    default_eta_grid,
    maximal_fn,
    maximal_truncation,
)
from .compactness import (
    DecayComparison,
    KRReport,
    ShiftDecomposition,
    SpectralReport,
    TailReport,
    UnitBallSample,
    decay_compare,
    kr_probe,
    operator_spectral_report,
    sample_unit_ball,
    shift_decomposition,
    tail_constant,
)

__version__ = "0.1.0"
