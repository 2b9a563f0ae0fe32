"""Optimization-based coupling of a 1D Lennard-Jones lattice to a Cauchy-Born
finite element model on overlapping domains."""

from .coupling import (
    CoupledProblem,
    KktSystem,
    NewtonDiagnostics,
    SystemState,
    solve_kkt_linear,
)
from .domain import (
    DomainDecomposition,
    GradedMesh,
    build_graded_mesh,
    count_dof,
    make_decomposition,
    mesh_size,
    optimal_radii,
)
from .exceptions import (
    AtcError,
    ConfigurationError,
    IllPosedParametersError,
    KktSolverError,
    NonConvergenceError,
    UsageError,
)
from .harness import (
    ConvergenceRecord,
    fit_rate,
    measure_errors,
    read_csv,
    records_to_csv,
    run_single,
    run_sweep,
    write_csv,
    write_plot_data,
)
from .models import (
    AtomisticModel,
    ContinuumModel,
    ExternalForce,
    exact_solution,
    exact_solution_derivative,
    force_values,
    manufacture_forces,
)
from .potentials import (
    cauchy_born_d1,
    cauchy_born_d2,
    cauchy_born_d3,
    cauchy_born_energy_density,
    phi,
    phi_d1,
    phi_d2,
    phi_d3,
)
from .reference import (
    ReferenceSolution,
    conjectured_bound,
    energy_seminorm_error,
    max_norm_error,
    solve_full_atomistic,
)

__version__ = "0.1.0"
