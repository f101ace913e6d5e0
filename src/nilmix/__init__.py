"""nilmix: exact spectral data, small-divisor solvers and correlation engines
for toral and nilmanifold automorphisms."""

from .catalog import System, get_system, random_ergodic_gl3, system_names
from .correlate import (
    BudgetError,
    CorrelationSeries,
    correlation2,
    correlation_n,
    counterexample_maxgap,
    decay_fit,
    no_uniform_bound_demo,
)
from .dioph import (
    DiophantineCertificate,
    certify_structural_subspaces,
    diophantine_certificate,
    type_i_subspace,
)
from .exactlin import (
    IntPolynomial,
    LyapunovSplitting,
    PrecisionError,
    PrimaryDecomposition,
    RationalMatrix,
    char_poly,
    factor_over_q,
    is_cyclotomic,
    lyapunov_data,
    primary_decomposition,
)
from .fourier import ExactComplex, FourierObservable, real_cosine, real_sine
from .fracsolve import (
    ObstructionError,
    project_torus_factor,
    schrodinger_threshold,
    sobolev_norm,
    solve_fractional,
    split_small_divisor,
    threshold_sweep,
)
from .nilalg import (
    NilpotentAlgebra,
    SpectralClassification,
    abelian_algebra,
    abelianization_action,
    central_series,
    classify,
    filiform4_algebra,
    find_regular_element,
    heisenberg_algebra,
    lyapunov_functionals,
    validate_algebra,
    validate_automorphism,
)
from .rates import (
    RateReport,
    TimeTuple,
    density_estimate,
    holder_rate,
    order2_envelope,
    rho_chi,
    theta,
)

__version__ = "0.1.0"
