"""Classically emulated adiabatic variational solver for linear systems.

The solver follows a homotopy from the identity to the target matrix,
reoptimizing a layered Ry/CNOT ansatz at each stop from the previous
optimum, with step sizes chosen either from a condition-number schedule or
from exact Hessian extrapolation of the cost.
"""

import os

# One BLAS thread per process. The runs here reach n=8, whose matrices are 256
# wide, or 512 when the system is embedded; there BLAS helper threads only
# spin, and they take CPUs from the other `sweep --jobs` workers. At n=8 a
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
