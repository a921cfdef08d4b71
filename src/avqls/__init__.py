"""Classically emulated adiabatic variational solver for linear systems.

The solver follows a homotopy from the identity to the target matrix,
reoptimizing a layered Ry/CNOT ansatz at each stop from the previous
optimum, with step sizes chosen either from a condition-number schedule or
from exact Hessian extrapolation of the cost.

Importing avqls sets OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 in the
importing program's environment, unless they are already set, for the
reasons the comment at the setting gives. (The widest matrices it names
are those of embedded n=8 systems, such as noisy_constant with sigma 1 at
seed 0.) So BLAS runs one thread per process, and every child process
started afterwards inherits the setting, whether or not it uses avqls;
`sweep --jobs N` is how to use more cores: it runs cells in the sweeping
process and in up to N − 1 workers forked from it, and retries a cell
that killed its worker only in a freshly forked one. A program that
imports numpy or scipy before avqls keeps their default threading.

Importing avqls loads numpy, numpy.random and L-BFGS-B's extension module
scipy.optimize._lbfgsb, and no other part of scipy; a solve loads nothing
more. A sweep loads multiprocessing when it forks its first worker, which
inherits it, and `avqls verify` loads its battery, avqls.verify, when it
runs.
"""

import os

# One BLAS thread per process. The runs here reach n=8, whose matrices are 256
# wide, or 512 when the system is embedded; there BLAS helper threads only
# spin, and they take CPUs from the other `sweep --jobs` processes. At n=8 a
# threaded gemm also rounds differently, so a trace would depend on the host's
# core count. The LAPACK calls go through numpy's BLAS; scipy's serves only
# L-BFGS-B's setulb. Each BLAS reads these variables when it loads, so this
# must run before numpy or scipy is first imported; a value already exported
# wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .ansatz import AnsatzConfig, apply_ansatz
from .config import ProblemConfig, RunConfig, SolverConfig, config_from_dict, load_config
from .controller import (
    MinimizeResult,
    RunTrace,
    StepKind,
    StepRecord,
    minimize_cost,
    propose_step,
    solve_adiabatic,
)
from .cost import (
    CostModel,
    HessianBundle,
    assemble_hamiltonian,
    build_cost_model,
    hessian_bundle,
    hessian_extrapolate,
)
from .errors import ConfigError, InvalidScheduleError, SingularMatrixError
from .metrics import (
    SolutionReport,
    accuracy,
    classical_solve,
    infidelity,
    solve_parametric,
)
from .problems import (
    PreparedSystem,
    build_source,
    discretize_heat,
    heat_system,
    householder,
    prepare,
    recover_solution,
    sample_conductivity,
)
from .runner import build_system, emit_schedule, evaluate_run, run_single, run_sweep
from .schedule import (
    condition_number,
    default_sequence,
    next_increment,
    s_of_v,
    uniform_sequence,
    v_bounds,
)

__version__ = "0.1.0"
