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
states (including the adjoint-contracted third derivatives of the subproblem
energies) and B the constraint linearizations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import DomainDecomposition, GradedMesh
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


@dataclass(frozen=True)
class NewtonOptions:
    """Damped Newton controls: stop below tolerance or after max_iterations.

    Every step uses the full Hessian of the stationarity functional, with
    the adjoint-contracted third-derivative terms in the displacement blocks.
    """

    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise UsageError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 0:
            raise UsageError(f"max_iterations must be >= 0, got {self.max_iterations}")


class BlockLayout:
    """Named slices of the flat unknown vector."""

    def __init__(self, sizes: dict[str, int]):
        if tuple(sizes) != BLOCK_NAMES:
            raise UsageError(f"blocks must be {BLOCK_NAMES}")
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
    layout: BlockLayout

    def block(self, row: str, col: str) -> np.ndarray:
        return self.matrix[self.layout[row], self.layout[col]].toarray()


@dataclass
class NewtonDiagnostics:
    """Per-iteration history of a Newton run."""

    residuals: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    objective_values: list = field(default_factory=list)
    kkt_residuals: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_lengths)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("iter,residual,step_length,objective\n")
        for i, (r, obj) in enumerate(zip(self.residuals, self.objective_values)):
            step = 0.0 if i == 0 else self.step_lengths[i - 1]
            out.write(f"{i},{r!r},{step!r},{obj!r}\n")
        return out.getvalue()


def solve_kkt_linear(system, rhs, residual_bound: float = 1e-10):
    """Direct solve of the saddle-point system with a residual contract.

    Symmetric diagonal equilibration followed by sparse LU, with iterative
    refinement until the relative residual (inf norm) meets residual_bound.
    Returns (solution, relative_residual).
    """
    matrix = system.matrix if isinstance(system, KktSystem) else system
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
        raise KktSolverError(f"sparse factorization failed: {err}",
                             condition_estimate=_condition_estimate(matrix)) from err
    x = d * lu.solve(d * rhs)
    rel = np.max(np.abs(matrix @ x - rhs)) / rhs_norm
    for _ in range(3):
        if rel <= residual_bound:
            break
        x = x + d * lu.solve(d * (rhs - matrix @ x))
        rel = np.max(np.abs(matrix @ x - rhs)) / rhs_norm
    if not np.isfinite(rel) or rel > residual_bound:
        raise KktSolverError(
            f"linear solve residual {rel:.3e} exceeds bound {residual_bound:.1e}",
            condition_estimate=_condition_estimate(matrix, lu=lu, scale=d))
    return x, rel


def _condition_estimate(matrix, lu=None, scale=None):
    """One-norm condition estimate; cheap but adequate for diagnostics."""
    try:
        norm_a = spla.onenormest(matrix)
        if lu is None:
            return None if matrix.shape[0] > 5000 else float(
                np.linalg.cond(matrix.toarray(), 1))
        n = matrix.shape[0]
        inv_op = spla.LinearOperator(
            (n, n),
            matvec=lambda v: scale * lu.solve(scale * v),
            rmatvec=lambda v: scale * lu.solve(scale * v, trans="T"),
        )
        return float(norm_a * spla.onenormest(inv_op))
    except Exception:
        return None


class CoupledProblem:
    """Assembles and solves the coupled problem on one decomposition."""

    def __init__(self, dec: DomainDecomposition, mesh: GradedMesh, gamma: float,
                 force: ExternalForce | None = None):
        self.dec = dec
        self.mesh = mesh
        self.gamma = gamma
        self.force = force if force is not None else manufacture_forces(gamma, dec)
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

        # the mismatch objective is quadratic; assemble its blocks once
        self._j_aa = np.zeros((na, na))
        self._j_cc = [np.zeros((minus.n, minus.n)), np.zeros((plus.n, plus.n))]
        self._j_ac = [np.zeros((na, minus.n)), np.zeros((na, plus.n))]
        for side, (ov_a, ov_c) in enumerate(((self.ov_minus_a, self.ov_minus_c),
                                             (self.ov_plus_a, self.ov_plus_c))):
            la, ra = ov_a[:-1], ov_a[1:]
            lc, rc = ov_c[:-1], ov_c[1:]
            ones = np.ones(w)
            for (big, i, j, s) in ((self._j_aa, la, la, 1.0), (self._j_aa, ra, ra, 1.0),
                                   (self._j_aa, la, ra, -1.0), (self._j_aa, ra, la, -1.0)):
                np.add.at(big, (i, j), s * ones)
            jcc = self._j_cc[side]
            np.add.at(jcc, (lc, lc), ones)
            np.add.at(jcc, (rc, rc), ones)
            np.add.at(jcc, (lc, rc), -ones)
            np.add.at(jcc, (rc, lc), -ones)
            jac = self._j_ac[side]
            np.add.at(jac, (la, lc), -ones)
            np.add.at(jac, (ra, rc), -ones)
            np.add.at(jac, (la, rc), ones)
            np.add.at(jac, (ra, lc), ones)

        # mean-zero constraint gradients (rows: positive component, negative)
        self._c_a = np.zeros((2, na))
        self._c_a[0, self.ov_plus_a] = trapz
        self._c_a[1, self.ov_minus_a] = trapz
        self._c_c = [np.zeros((2, minus.n)), np.zeros((2, plus.n))]
        self._c_c[0][1, self.ov_minus_c] = -trapz
        self._c_c[1][0, self.ov_plus_c] = -trapz

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

    def lagrangian_gradient(self, state: SystemState) -> np.ndarray:
        full_m, full_p = self._full_sides(state)
        minus, plus = self.continuum.minus, self.continuum.plus
        g = np.zeros(self.layout.total)

        # objective part (quadratic form times the displacement vector)
        gj_a = self._j_aa @ state.u_a + self._j_ac[0] @ full_m + self._j_ac[1] @ full_p
        gj_m = self._j_ac[0].T @ state.u_a + self._j_cc[0] @ full_m
        gj_p = self._j_ac[1].T @ state.u_a + self._j_cc[1] @ full_p

        # multiplier-weighted constraint derivatives
        lam_a_full = np.zeros(self.atomistic.n)
        lam_a_full[self.atomistic.test_idx] = state.lam_a
        adj_a = self.atomistic.hessian(state.u_a) @ lam_a_full
        lam_m_full = np.zeros(minus.n)
        lam_m_full[1:-1] = state.lam_c_minus
        adj_m = minus.hessian(full_m) @ lam_m_full
        lam_p_full = np.zeros(plus.n)
        lam_p_full[1:-1] = state.lam_c_plus
        adj_p = plus.hessian(full_p) @ lam_p_full

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
        minus, plus = self.continuum.minus, self.continuum.plus

        lam_a_full = np.zeros(self.atomistic.n)
        lam_a_full[self.atomistic.test_idx] = state.lam_a
        a_aa = self._j_aa + self.atomistic.third_contraction(state.u_a, lam_a_full)
        lam_m_full = np.zeros(minus.n)
        lam_m_full[1:-1] = state.lam_c_minus
        a_cc_m = self._j_cc[0] + minus.third_contraction(full_m, lam_m_full)
        lam_p_full = np.zeros(plus.n)
        lam_p_full[1:-1] = state.lam_c_plus
        a_cc_p = self._j_cc[1] + plus.third_contraction(full_p, lam_p_full)

        fs_m, fs_p = minus.free_slice, plus.free_slice
        b_a = self.atomistic.hessian(state.u_a)[self.atomistic.test_idx, :]
        b_m = minus.hessian(full_m)[1:-1, fs_m]
        b_p = plus.hessian(full_p)[1:-1, fs_p]
        c_a = self._c_a
        c_m = self._c_c[0][:, fs_m]
        c_p = self._c_c[1][:, fs_p]

        K = sp.bmat([
            [sp.csr_matrix(a_aa), sp.csr_matrix(self._j_ac[0][:, fs_m]),
             sp.csr_matrix(self._j_ac[1][:, fs_p]), sp.csr_matrix(b_a.T),
             None, None, sp.csr_matrix(c_a.T)],
            [sp.csr_matrix(self._j_ac[0][:, fs_m].T), sp.csr_matrix(a_cc_m[fs_m, fs_m]),
             None, None, sp.csr_matrix(b_m.T), None, sp.csr_matrix(c_m.T)],
            [sp.csr_matrix(self._j_ac[1][:, fs_p].T), None,
             sp.csr_matrix(a_cc_p[fs_p, fs_p]), None, None, sp.csr_matrix(b_p.T),
             sp.csr_matrix(c_p.T)],
            [sp.csr_matrix(b_a), None, None, None, None, None, None],
            [None, sp.csr_matrix(b_m), None, None, None, None, None],
            [None, None, sp.csr_matrix(b_p), None, None, None, None],
            [sp.csr_matrix(c_a), sp.csr_matrix(c_m), sp.csr_matrix(c_p),
             None, None, None, None],
        ], format="csc")
        return KktSystem(K, self.layout)

    # ---------------- solver ----------------

    def newton_solve(self, initial: SystemState | None = None,
                     options: NewtonOptions | None = None):
        """Damped Newton on the stationarity system from the given state.

        Backtracks on the inf norm of the gradient; a trial step that makes
        the configuration unevaluable counts as rejected.  Raises
        NonConvergenceError when the iteration or step budget is exhausted.
        """
        opts = options or NewtonOptions()
        state = initial.copy() if initial is not None else self.zero_state()
        diag = NewtonDiagnostics()
        grad = self.lagrangian_gradient(state)
        res = float(np.max(np.abs(grad)))
        diag.residuals.append(res)
        diag.objective_values.append(
            self.objective(state.u_a, state.u_c_minus, state.u_c_plus))

        while res >= opts.tolerance:
            if diag.iterations >= opts.max_iterations:
                raise NonConvergenceError(
                    f"no convergence in {opts.max_iterations} iterations "
                    f"(residual {res:.3e})",
                    residual_history=diag.residuals, diagnostics=diag)
            system = self.lagrangian_hessian(state)
            step, rel = solve_kkt_linear(system, -grad)
            diag.kkt_residuals.append(rel)

            alpha = 1.0
            accepted = False
            while alpha >= MIN_STEP:
                trial = SystemState(self.layout, state.vector + alpha * step)
                try:
                    grad_new = self.lagrangian_gradient(trial)
                    res_new = float(np.max(np.abs(grad_new)))
                except ConfigurationError:
                    res_new = np.inf
                if res_new <= (1.0 - SUFFICIENT_DECREASE * alpha) * res:
                    accepted = True
                    break
                alpha *= DAMPING_FACTOR
            if not accepted:
                raise NonConvergenceError(
                    f"line search failed at residual {res:.3e}",
                    residual_history=diag.residuals, diagnostics=diag)

            state, grad, res = trial, grad_new, res_new
            diag.residuals.append(res)
            diag.step_lengths.append(alpha)
            diag.objective_values.append(
                self.objective(state.u_a, state.u_c_minus, state.u_c_plus))

        diag.converged = True
        return state, diag

    # ---------------- composite solution ----------------

    def assemble_atc_solution(self, state: SystemState) -> np.ndarray:
        """Composite displacement on every lattice site of the domain.

        Atomistic values inside the atomistic region, the continuum
        interpolant outside it, zero on the outer boundary.
        """
        dec = self.dec
        full_m, full_p = self._full_sides(state)
        vals = np.zeros(2 * dec.r_c + 1)
        off = dec.r_c
        vals[off - dec.r_a: off + dec.r_a + 1] = state.u_a
        xs = np.arange(dec.r_a + 1, dec.r_c + 1)
        vals[xs + off] = np.interp(xs, self.continuum.plus.x, full_p)
        xs = np.arange(-dec.r_c, -dec.r_a)
        vals[xs + off] = np.interp(xs, self.continuum.minus.x, full_m)
        return vals
