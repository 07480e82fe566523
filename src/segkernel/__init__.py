"""Phase-separation profile, linearized Dirichlet solver, and
invertibility-constant experiments."""

from . import errors
from .counterexample import (
    CounterexampleSpec,
    ResidualReport,
    build_counterexample,
    counterexample_residual,
    default_node_count,
    lower_bound_from_counterexample,
    raw_kernel_pair,
    sigma_helper,
    sinh_ratio,
    smooth_cutoff,
)
from .invertibility import (
    SweepPoint,
    SweepRecord,
    inv_constant_estimate,
    inv_constant_exact,
    run_sweep,
    run_sweep_entry,
    smallest_eigenvalue,
)
from .norms import (
    KernelBasis,
    NormContext,
    Projector,
    kernel_basis,
    pair_inner,
    unweighted_sup_norm,
    weighted_sup_norm,
)
from .operator1d import (
    DiscreteOperator,
    Grid,
    PairGridFunction,
    assemble,
    convergence_report,
    mms_pair,
)
from .profile import (
    AsymptoticConstants,
    ProfileTable,
    discrete_residual,
    eval_profile,
    extract_asymptotics,
    get_profile,
    load_profile,
    save_profile,
    solve_profile,
)

__version__ = "0.1.0"
