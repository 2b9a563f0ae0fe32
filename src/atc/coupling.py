"""Coupled optimization problem and its saddle-point Newton solver.

The atomistic and continuum subproblems are coupled by minimizing the squared
L2 mismatch between the strain of the interpolated atomistic state and the
continuum strain over the overlap region, subject to both equilibrium
constraint sets and one mean-zero constraint per overlap component (the
objective only sees strains, so each component's constant is otherwise free).

The constrained problem is solved in one shot: adjoints for every constraint
are introduced, and the stationarity system of the resulting functional is
solved by damped Newton iteration.  Each Newton step solves a symmetric
indefinite saddle-point system

    [ A  B^T ] [x] = -grad
    [ B   0  ]

where A carries second derivatives with respect to the two displacement
states (the objective's constant Hessian plus the adjoint-contracted third
derivatives of the subproblem energies) and B the constraint linearizations.
The matrix is assembled sparse from the model stencils, with the constant
blocks built once per problem; only the gradient keeps dense products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import COMPOSITE_BYTES_PER_SITE, DomainDecomposition, GradedMesh, require_memory
from .exceptions import ConfigurationError, KktSolverError, NonConvergenceError, UsageError
from .models import AtomisticModel, ContinuumModel, ExternalForce, manufacture_forces

BLOCK_NAMES = ("u_a", "u_c_minus", "u_c_plus",
               "lam_a", "lam_c_minus", "lam_c_plus", "eta")

# Backtracking line search: each rejected trial halves the step, a trial is
# accepted when it cuts the residual by the fraction 1e-4 * step, and steps
# below 1e-12 give up.
DAMPING_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1e-12

# Newton stops once the inf-norm residual is below the tolerance, by default
# this one, and gives up after MAX_ITERATIONS steps.
DEFAULT_TOLERANCE = 1e-10
MAX_ITERATIONS = 50

# Every saddle-point solve must meet this relative residual (inf norm).
KKT_RESIDUAL_BOUND = 1e-10


class BlockLayout:
    """Named slices of the flat unknown vector, blocks in BLOCK_NAMES order."""

    def __init__(self, sizes: dict[str, int]):
        self.sizes = dict(sizes)
        offsets = np.concatenate(([0], np.cumsum(list(sizes.values()))))
        self.slices = {name: slice(int(offsets[i]), int(offsets[i + 1]))
                       for i, name in enumerate(sizes)}
        self.total = int(offsets[-1])

    def __getitem__(self, name: str) -> slice:
        return self.slices[name]


@dataclass
class SystemState:
    """Flat unknown vector with named block views.

    Blocks: atomistic displacement (one value per atomistic site), the two
    continuum free nodal vectors, the two adjoint families indexed by the
    equilibrium test sets, and the two overlap mean multipliers.
    """

    layout: BlockLayout
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)
        if self.vector.shape != (self.layout.total,):
            raise UsageError("state vector length does not match layout")

    def copy(self) -> "SystemState":
        return SystemState(self.layout, self.vector.copy())


# one view property per block: state.u_a is vector[layout["u_a"]], and so on
for _name in BLOCK_NAMES:
    setattr(SystemState, _name,
            property(lambda self, _name=_name: self.vector[self.layout[_name]]))
del _name


@dataclass
class KktSystem:
    """Assembled block Hessian of the stationarity functional."""

    matrix: sp.csc_matrix


@dataclass
class NewtonDiagnostics:
    """Per-iteration history of a Newton run."""

    residuals: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    kkt_residuals: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_lengths)


def solve_kkt_linear(matrix, rhs):
    """Direct solve of the saddle-point system with a residual contract.

    Symmetric diagonal equilibration followed by sparse LU, with iterative
    refinement until the relative residual (inf norm) meets
    KKT_RESIDUAL_BOUND.  Returns (solution, relative_residual).
    """
    matrix = sp.csc_matrix(matrix)
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = np.max(np.abs(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    row_scale = np.sqrt(np.abs(matrix).max(axis=1).toarray().ravel())
    if np.any(row_scale == 0.0):
        raise KktSolverError("structurally singular system: empty row",
                             condition_estimate=np.inf)
    d = 1.0 / row_scale
    scaled = sp.diags(d) @ matrix @ sp.diags(d)
    try:
        lu = spla.splu(scaled.tocsc())
    except RuntimeError as err:
        raise KktSolverError(f"sparse factorization failed: {err}") from err
    x = d * lu.solve(d * rhs)
    rel = np.max(np.abs(matrix @ x - rhs)) / rhs_norm
    for _ in range(3):
        if rel <= KKT_RESIDUAL_BOUND:
            break
        x = x + d * lu.solve(d * (rhs - matrix @ x))
        rel = np.max(np.abs(matrix @ x - rhs)) / rhs_norm
    if not np.isfinite(rel) or rel > KKT_RESIDUAL_BOUND:
        raise KktSolverError(
            f"linear solve residual {rel:.3e} exceeds bound {KKT_RESIDUAL_BOUND:.1e}",
            condition_estimate=_condition_estimate(matrix, lu=lu, scale=d))
    return x, rel


def _condition_estimate(matrix, lu, scale):
    """One-norm condition estimate from the LU; cheap but adequate for diagnostics."""
    n = matrix.shape[0]
    # the operator is applied to (n, 1) columns; scaled unflattened, they
    # would broadcast against the (n,) scale to (n, n)
    inv_op = spla.LinearOperator(
        (n, n),
        matvec=lambda v: scale * lu.solve(scale * np.ravel(v)),
        rmatvec=lambda v: scale * lu.solve(scale * np.ravel(v), trans="T"),
    )
    return float(spla.onenormest(matrix) * spla.onenormest(inv_op))


def check_tolerance(tolerance: float) -> None:
    """Raise a UsageError unless the Newton tolerance is finite and positive."""
    if not 0.0 < tolerance < np.inf:
        raise UsageError(f"tolerance must be finite and positive, got {tolerance}")


def damped_newton(x0, gradient, step, tolerance: float, diagnostics=None):
    """Damped Newton from x0 until the inf norm of gradient(x) is below tolerance.

    step(x, g) returns the Newton step at x, where the gradient is g.  Each
    step backtracks by DAMPING_FACTOR until the residual falls by the fraction
    SUFFICIENT_DECREASE * alpha; a trial whose gradient raises
    ConfigurationError counts as rejected.  Fills diagnostics (a new
    NewtonDiagnostics by default) and returns (x, diagnostics); raises
    NonConvergenceError after MAX_ITERATIONS steps or a step below MIN_STEP.
    """
    check_tolerance(tolerance)
    diag = diagnostics if diagnostics is not None else NewtonDiagnostics()
    x, grad = x0, gradient(x0)
    res = float(np.max(np.abs(grad)))
    diag.residuals.append(res)

    # written so that a NaN residual is not taken for convergence
    while not res < tolerance:
        if diag.iterations >= MAX_ITERATIONS:
            raise NonConvergenceError(
                f"no convergence in {MAX_ITERATIONS} iterations (residual {res:.3e})",
                residual_history=diag.residuals, diagnostics=diag)
        direction = step(x, grad)
        alpha = 1.0
        while alpha >= MIN_STEP:
            trial = x + alpha * direction
            try:
                grad_new = gradient(trial)
                res_new = float(np.max(np.abs(grad_new)))
            except ConfigurationError:
                res_new = np.inf
            if res_new <= (1.0 - SUFFICIENT_DECREASE * alpha) * res:
                break
            alpha *= DAMPING_FACTOR
        else:
            raise NonConvergenceError(
                f"line search failed at residual {res:.3e}",
                residual_history=diag.residuals, diagnostics=diag)
        x, grad, res = trial, grad_new, res_new
        diag.residuals.append(res)
        diag.step_lengths.append(alpha)

    diag.converged = True
    return x, diag


class CoupledProblem:
    """Assembles and solves the coupled problem on one decomposition."""

    def __init__(self, dec: DomainDecomposition, mesh: GradedMesh, gamma: float,
                 force: ExternalForce | None = None):
        self.dec = dec
        self.mesh = mesh
        self.gamma = gamma
        if force is None:
            force = manufacture_forces(gamma, dec)
        # the force is fixed by gamma and r_a; one built for other values
        # gives a wrong answer without any error
        elif force.gamma != gamma or len(force.values) != 2 * dec.r_a + 1:
            raise UsageError(
                f"force built for gamma {force.gamma} on {len(force.values)} atomistic "
                f"sites; this problem has gamma {gamma} and {2 * dec.r_a + 1}")
        self.force = force
        self.atomistic = AtomisticModel(dec, self.force)
        self.continuum = ContinuumModel(dec, mesh, self.force)
        minus, plus = self.continuum.minus, self.continuum.plus

        na = self.atomistic.n
        self.layout = BlockLayout({
            "u_a": na,
            "u_c_minus": minus.n - 1,
            "u_c_plus": plus.n - 1,
            "lam_a": len(self.atomistic.test_idx),
            "lam_c_minus": minus.n - 2,
            "lam_c_plus": plus.n - 2,
            "eta": 2,
        })

        w = dec.overlap_width
        # overlap node positions: in u_a and in each side's full nodal vector
        self.ov_plus_a = np.arange(dec.r_core + dec.r_a, 2 * dec.r_a + 1)
        self.ov_plus_c = np.arange(0, w + 1)
        self.ov_minus_a = np.arange(0, w + 1)
        self.ov_minus_c = np.arange(minus.n - 1 - w, minus.n)
        trapz = np.ones(w + 1)
        trapz[0] = trapz[-1] = 0.5
        self.trapz = trapz

        # Overlap element k of a side spans nodes a[:, k] of u_a and c[:, k]
        # of the side's full nodal vector; its strain mismatch is
        # (u_a[a[1]] - u_a[a[0]]) - (u_c[c[1]] - u_c[c[0]]).  The objective's
        # Hessian J sums the outer products of those coefficients.  J and the
        # mean-zero rows C are held dense for the gradient and sparse, in the
        # coordinates of the displacement unknowns, for the KKT matrix.
        sign = np.array([-1.0, 1.0, 1.0, -1.0])
        coef = np.outer(sign, sign)[:, :, None]
        self._j_aa = np.zeros((na, na))
        self._j_cc = [np.zeros((minus.n, minus.n)), np.zeros((plus.n, plus.n))]
        self._j_ac = [np.zeros((na, minus.n)), np.zeros((na, plus.n))]
        # mean-zero constraint gradients (rows: positive component, negative)
        self._c_a = np.zeros((2, na))
        self._c_c = [np.zeros((2, minus.n)), np.zeros((2, plus.n))]
        rows, cols, vals = [], [], []
        for side, (ov_a, ov_c, row, block, cont) in enumerate((
                (self.ov_minus_a, self.ov_minus_c, 1, "u_c_minus", minus),
                (self.ov_plus_a, self.ov_plus_c, 0, "u_c_plus", plus))):
            a = np.array((ov_a[:-1], ov_a[1:]))
            c = np.array((ov_c[:-1], ov_c[1:]))
            np.add.at(self._j_aa, (a[:, None], a[None]), coef[:2, :2])
            np.add.at(self._j_ac[side], (a[:, None], c[None]), coef[:2, 2:])
            np.add.at(self._j_cc[side], (c[:, None], c[None]), coef[2:, 2:])
            self._c_a[row, ov_a] = trapz
            self._c_c[side][row, ov_c] = -trapz
            # u_a comes first among the unknowns, then each side's free nodes
            q = np.concatenate((a, c + self.layout[block].start - cont.free_slice.start))
            rows.append(np.repeat(q, 4, axis=0))
            cols.append(np.tile(q, (4, 1)))
            vals.append(np.repeat(coef, w, axis=2))
        n_u = self.layout["lam_a"].start
        rows, cols, vals = (np.concatenate(x, axis=None) for x in (rows, cols, vals))
        # J's entries are sums of +-1, exact in any order, so scipy may sum them
        self._j_uu = sp.csr_matrix((vals, (rows, cols)), shape=(n_u, n_u))
        self._c_u = sp.csr_matrix(np.hstack(
            (self._c_a, self._c_c[0][:, minus.free_slice], self._c_c[1][:, plus.free_slice])))

    # ---------------- states ----------------

    def zero_state(self) -> SystemState:
        return SystemState(self.layout, np.zeros(self.layout.total))

    def _full_sides(self, state: SystemState):
        return (self.continuum.minus.embed(state.u_c_minus),
                self.continuum.plus.embed(state.u_c_plus))

    # ---------------- coupling quantities ----------------

    def _mismatches(self, u_a, full_m, full_p):
        dm = np.diff(u_a[self.ov_minus_a]) - np.diff(full_m[self.ov_minus_c])
        dp = np.diff(u_a[self.ov_plus_a]) - np.diff(full_p[self.ov_plus_c])
        return dm, dp

    def objective(self, u_a, u_c_minus, u_c_plus) -> float:
        """Half the squared L2 norm of the overlap strain mismatch."""
        full_m = self.continuum.minus.embed(u_c_minus)
        full_p = self.continuum.plus.embed(u_c_plus)
        dm, dp = self._mismatches(np.asarray(u_a, dtype=float), full_m, full_p)
        return float(0.5 * (np.dot(dm, dm) + np.dot(dp, dp)))

    def mean_zero_constraints(self, u_a, u_c_minus, u_c_plus) -> tuple[float, float]:
        """Exact integrals of (I u_a - u_c) over the (positive, negative) components."""
        u_a = np.asarray(u_a, dtype=float)
        full_m = self.continuum.minus.embed(u_c_minus)
        full_p = self.continuum.plus.embed(u_c_plus)
        c_plus = np.dot(self.trapz, u_a[self.ov_plus_a] - full_p[self.ov_plus_c])
        c_minus = np.dot(self.trapz, u_a[self.ov_minus_a] - full_m[self.ov_minus_c])
        return float(c_plus), float(c_minus)

    # ---------------- stationarity functional ----------------

    def lagrangian(self, state: SystemState) -> float:
        full_m, full_p = self._full_sides(state)
        j = self.objective(state.u_a, state.u_c_minus, state.u_c_plus)
        res_a = self.atomistic.equilibrium_residual(state.u_a)
        res_m = self.continuum.minus.gradient(full_m)[1:-1]
        res_p = self.continuum.plus.gradient(full_p)[1:-1]
        c_plus, c_minus = self.mean_zero_constraints(
            state.u_a, state.u_c_minus, state.u_c_plus)
        return float(j + np.dot(state.lam_a, res_a)
                     + np.dot(state.lam_c_minus, res_m)
                     + np.dot(state.lam_c_plus, res_p)
                     + state.eta[0] * c_plus + state.eta[1] * c_minus)

    def _adjoint_fields(self, state: SystemState):
        """The three adjoints as full-length fields, zero off the test set."""
        lam_a = np.zeros(self.atomistic.n)
        lam_a[self.atomistic.test_idx] = state.lam_a
        lam_m = np.zeros(self.continuum.minus.n)
        lam_m[1:-1] = state.lam_c_minus
        lam_p = np.zeros(self.continuum.plus.n)
        lam_p[1:-1] = state.lam_c_plus
        return lam_a, lam_m, lam_p

    def lagrangian_gradient(self, state: SystemState) -> np.ndarray:
        full_m, full_p = self._full_sides(state)
        lam_a, lam_m, lam_p = self._adjoint_fields(state)
        minus, plus = self.continuum.minus, self.continuum.plus
        g = np.zeros(self.layout.total)

        # The products below stay dense BLAS products on C-ordered arrays.
        # A sparse product, or a Fortran-ordered operand, sums the rows in
        # another order, and one ULP in the gradient moves the converged
        # err_l2 past 1e-6 relative (gamma 3, r_core 320).
        gj_a = self._j_aa @ state.u_a + self._j_ac[0] @ full_m + self._j_ac[1] @ full_p
        gj_m = self._j_ac[0].T @ state.u_a + self._j_cc[0] @ full_m
        gj_p = self._j_ac[1].T @ state.u_a + self._j_cc[1] @ full_p
        adj_a = self.atomistic.hessian(state.u_a).toarray() @ lam_a
        adj_m = minus.hessian(full_m).toarray() @ lam_m
        adj_p = plus.hessian(full_p).toarray() @ lam_p

        g[self.layout["u_a"]] = gj_a + adj_a + self._c_a.T @ state.eta
        g[self.layout["u_c_minus"]] = (gj_m + adj_m + self._c_c[0].T @ state.eta)[minus.free_slice]
        g[self.layout["u_c_plus"]] = (gj_p + adj_p + self._c_c[1].T @ state.eta)[plus.free_slice]
        g[self.layout["lam_a"]] = self.atomistic.equilibrium_residual(state.u_a)
        g[self.layout["lam_c_minus"]] = minus.gradient(full_m)[1:-1]
        g[self.layout["lam_c_plus"]] = plus.gradient(full_p)[1:-1]
        g[self.layout["eta"]] = self.mean_zero_constraints(
            state.u_a, state.u_c_minus, state.u_c_plus)
        return g

    def lagrangian_hessian(self, state: SystemState) -> KktSystem:
        """Block Hessian of the stationarity functional at the given state."""
        full_m, full_p = self._full_sides(state)
        lam_a, lam_m, lam_p = self._adjoint_fields(state)
        minus, plus = self.continuum.minus, self.continuum.plus
        fs_m, fs_p = minus.free_slice, plus.free_slice
        third = sp.block_diag((self.atomistic.third_contraction(state.u_a, lam_a),
                               minus.third_contraction(full_m, lam_m)[fs_m, fs_m],
                               plus.third_contraction(full_p, lam_p)[fs_p, fs_p]))
        b = sp.block_diag((self.atomistic.hessian(state.u_a)[self.atomistic.test_idx],
                           minus.hessian(full_m)[1:-1, fs_m],
                           plus.hessian(full_p)[1:-1, fs_p]))
        K = sp.bmat([[self._j_uu + third, b.T, self._c_u.T],
                     [b, None, None],
                     [self._c_u, None, None]], format="csc")
        return KktSystem(K)

    # ---------------- solver ----------------

    def newton_solve(self, initial: SystemState | None = None,
                     tolerance: float = DEFAULT_TOLERANCE):
        """Damped Newton (damped_newton) on the stationarity system from a state.

        Each step solves the KKT system of lagrangian_hessian and records its
        relative residual.  Returns (state, NewtonDiagnostics); the state
        never shares memory with initial.
        """
        diag = NewtonDiagnostics()

        def gradient(vector):
            return self.lagrangian_gradient(SystemState(self.layout, vector))

        def kkt_step(vector, grad):
            system = self.lagrangian_hessian(SystemState(self.layout, vector))
            step, rel = solve_kkt_linear(system.matrix, -grad)
            diag.kkt_residuals.append(rel)
            return step

        x0 = initial.vector.copy() if initial is not None else self.zero_state().vector
        vector, diag = damped_newton(x0, gradient, kkt_step, tolerance, diag)
        return SystemState(self.layout, vector), diag

    # ---------------- composite solution ----------------

    def composite_at(self, state: SystemState, sites) -> np.ndarray:
        """Composite displacement at ascending integer sites.

        Atomistic values on |site| <= r_a, the continuum interpolant of each
        side outside it, zero on and beyond the outer boundary.
        """
        sites = np.asarray(sites)
        minus, plus = self.continuum.minus, self.continuum.plus
        # np.interp reads only the two knots that bracket a site, so a site
        # beyond r_a sees its own side's element; the sites between the two
        # sides lie in [-r_a, r_a] and take the atomistic values below
        vals = np.interp(sites, np.concatenate((minus.x, plus.x)),
                         np.concatenate(self._full_sides(state)), left=0.0, right=0.0)
        r_a = self.dec.r_a
        lo, hi = np.searchsorted(sites, -r_a), np.searchsorted(sites, r_a, side="right")
        vals[lo:hi] = state.u_a[sites[lo:hi] + r_a]
        return vals

    def assemble_atc_solution(self, state: SystemState) -> np.ndarray:
        """Composite displacement on every lattice site of the domain."""
        require_memory("the full composite", 2 * self.dec.r_c + 1, COMPOSITE_BYTES_PER_SITE)
        return self.composite_at(state, self.dec.sites)
