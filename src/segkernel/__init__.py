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


def _pin_openblas_to_one_thread():
    """Set every OpenBLAS mapped into the process, numpy's and scipy's, to
    one thread: a second one buys nothing on banded solves and small tile
    products, spins a core, and makes threaded dot products round with the
    thread count.  Does nothing where no OpenBLAS is mapped."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
        libs = [ctypes.CDLL(path) for path in sorted(
            {f[5].strip() for f in fields
             if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]})]
    except OSError:             # no /proc, or a library replaced on disk
        return
    for lib in libs:
        for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                getattr(lib, name)(1)
                break


_pin_openblas_to_one_thread()
