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
states (the objective's constant Hessian, a stencil band per model whose
u_a-side blocks are the sides' bands negated, plus the adjoint-contracted
third derivatives of the subproblem energies) and B the constraint
linearizations.  Each step takes the matrix's entries, each position once,
from the Hessian bands of the point the gradient kept, the one evaluator of a
Newton point, and from the constant objective and constraint entries.  Only
the gradient keeps dense products, by blocks in a zeroed scratch array that
each gradient call allocates for itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import COMPOSITE_BYTES_PER_SITE, DomainDecomposition, GradedMesh, require_memory
from .exceptions import ConfigurationError, KktSolverError, NonConvergenceError, UsageError
from .models import AtomisticModel, ContinuumModel, ExternalForce, manufacture_forces, stencil_band
from .potentials import INTERACTION_RANGE

# each model's unknown and adjoint blocks, in the order of CoupledProblem.models
MODEL_BLOCKS = (("u_a", "lam_a"), ("u_c_minus", "lam_c_minus"), ("u_c_plus", "lam_c_plus"))
BLOCK_NAMES = (*(u for u, _ in MODEL_BLOCKS), *(lam for _, lam in MODEL_BLOCKS), "eta")

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

# Floats of the scratch array that the gradient's dense products are built
# in (1 MB), unless the largest model's n**2 is smaller; never fewer than
# seven rows of n, a block of 4 and a tail of 3.
PRODUCT_SCRATCH = 1 << 17


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


@dataclass(frozen=True)
class Overlap:
    """One overlap of the atomistic region and a continuum side.

    side is the side's index in CoupledProblem.models; c holds the side's
    nodes inside [-r_a, r_a] as side indices and a the same sites as u_a
    indices; row is the overlap's mean-zero row in eta.  j_ac is its u_a-side
    block of J as (shape, flat positions, values): the side's J entries
    negated, each row moved to its site's u_a row; plans are the
    _product_plans of j_ac @ v and j_ac.T @ v.
    """

    side: int
    a: np.ndarray
    c: np.ndarray
    row: int
    j_ac: tuple
    plans: tuple


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
    KKT_RESIDUAL_BOUND.  A non-finite entry of the matrix or the right-hand
    side raises before anything is factorized.  Returns (solution,
    relative_residual).
    """
    matrix = sp.csc_matrix(matrix)
    rhs = np.asarray(rhs, dtype=float)
    rows = matrix.indices
    cols = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    bad = np.flatnonzero(~np.isfinite(matrix.data))
    if bad.size:
        e = bad[0]
        raise KktSolverError(
            f"non-finite matrix entry {matrix.data[e]} at ({rows[e]}, {cols[e]})")
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        raise KktSolverError(f"non-finite right-hand side entry {rhs[bad[0]]} at {bad[0]}")
    rhs_norm = np.max(np.abs(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    row_max = np.zeros(matrix.shape[0])
    np.maximum.at(row_max, rows, np.abs(matrix.data))
    if np.any(row_max == 0.0):
        raise KktSolverError("structurally singular system: empty row",
                             condition_estimate=np.inf)
    d = 1.0 / np.sqrt(row_max)
    # diags(d) @ matrix @ diags(d) on the matrix's own pattern, in that
    # product's operand order; the index arrays are copied, since splu
    # sorts a non-canonical input in place
    scaled = sp.csc_matrix(((d[rows] * matrix.data) * d[cols], rows, matrix.indptr),
                           shape=matrix.shape, copy=True)
    try:
        lu = spla.splu(scaled)
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


def _band_slots(n: int):
    """The slots of a stencil_band array of n columns that lie in the matrix.

    Returns (slot, row, col) in row-major order of the matrix: slot indexes
    the raveled band, and holds the matrix entry (row, col).
    """
    k = INTERACTION_RANGE
    row, off = np.divmod(np.arange((2 * k + 1) * n), 2 * k + 1)
    col = row + off - k
    keep = (col >= 0) & (col < n)
    row, col = row[keep], col[keep]
    return (k + row - col) * n + col, row, col


def _product_plan(shape, pos, transpose, size):
    """The blocks of a @ v, or a.T @ v, in a scratch of size floats, for the
    C-ordered array a of this shape with entries at the ascending flat
    positions pos.

    Returns (length, transpose, order, local, blocks): block (o0, o1, v0, v1,
    i0, i1) makes out[o0:o1] of the length outputs from v[v0:v1] and entries
    i0 .. i1 - 1 of vals[order], at the flat positions local[i0:i1] of its
    C-ordered array.  A block without entries is left out; its outputs are
    zero.  An array that fits the scratch is one block.  Otherwise blocks
    start at multiples of w, the multiple of 4 that leaves room for 3 more
    outputs, so a tail of fewer than 4 joins the block before it.  With one
    BLAS thread, OpenBLAS gives such blocks the whole product's bits:
    - a[r0:r1] @ v is (a @ v)[r0:r1]; rows stay whole, since the kernel sums
      the columns in pieces of 2,048, and a column window across a piece's
      end changes the sum;
    - a[r0:r1, c0:c1].T @ v[r0:r1] is (a.T @ v)[c0:c1] when rows r0 .. r1 - 1
      hold every entry of a, r0 a multiple of 4 and r1 one or the row count;
      all blocks take the narrowest such rows.
    A block of 1 to 3 outputs can differ in the last bit.
    """
    rows, cols = shape
    # a @ v cuts pos, which is in row order, at the flat positions cut * cols
    length, order, key, unit, v0, v1 = rows, slice(None), pos, cols, 0, cols
    if transpose:
        # a stable sort by column keeps each column's entries in row order
        order = np.argsort(pos % cols, kind="stable")
        row, key = np.divmod(pos[order], cols)
        length, unit = cols, 1
        v0, v1 = int(row.min()) // 4 * 4, min((int(row.max()) + 4) // 4 * 4, rows)
    w = length if length * (v1 - v0) <= size else (size // (v1 - v0) - 3) // 4 * 4
    # each cut but the last leaves 4 or more outputs: a shorter tail joins the block before
    cuts = [*range(0, max(length - 3, 1), w), length]
    at = np.searchsorted(key, np.multiply(cuts, unit)).tolist()
    count = np.subtract(at[1:], at[:-1])
    o0 = np.repeat(cuts[:-1], count)
    local = ((row - v0) * np.repeat(np.diff(cuts), count) + key - o0 if transpose
             else pos - o0 * cols)
    blocks = [(a, b, v0, v1, i, j) for a, b, i, j in zip(cuts, cuts[1:], at, at[1:]) if j > i]
    return length, transpose, order, local, blocks


def _dense_product(plan, vals, v, scratch) -> np.ndarray:
    """The product of a _product_plan whose entries are vals, in a zeroed scratch.

    Each block is a dense BLAS product on a C-ordered view of the scratch,
    or on that view's transpose; a sparse product, or a Fortran-ordered
    copy, sums the rows in another order, and one ULP in the gradient moves
    the converged err_l2 past 1e-6 relative (gamma 3, r_core 320).  The
    scratch is zero again on return.
    """
    length, transpose, order, local, blocks = plan
    vals = vals[order]
    out = np.zeros(length)
    for o0, o1, v0, v1, i0, i1 in blocks:
        flat = scratch[:(o1 - o0) * (v1 - v0)]
        flat[local[i0:i1]] = vals[i0:i1]
        a = flat.reshape(v1 - v0, -1).T if transpose else flat.reshape(o1 - o0, -1)
        out[o0:o1] = a @ v[v0:v1]
        flat[local[i0:i1]] = 0.0
    return out


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
    # x0 and each accepted step are not read again: none is held by the next step
    del x0
    res = float(np.max(np.abs(grad)))
    diag.residuals.append(res)

    # written so that a NaN residual is not taken for convergence
    while not res < tolerance:
        if diag.iterations >= MAX_ITERATIONS:
            raise NonConvergenceError(
                f"no convergence in {MAX_ITERATIONS} iterations (residual {res:.3e})",
                diagnostics=diag)
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
                f"line search failed at residual {res:.3e}", diagnostics=diag)
        x, grad, res = trial, grad_new, res_new
        del direction
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
        # the force is fixed by gamma and r_a; one built for another gamma
        # gives a wrong answer without any error (AtomisticModel checks r_a)
        elif force.gamma != gamma:
            raise UsageError(f"force built for gamma {force.gamma}, not {gamma}")
        self.force = force
        self.atomistic = AtomisticModel(dec, self.force)
        self.continuum = ContinuumModel(dec, mesh, self.force)
        self.models = (self.atomistic, self.continuum.minus, self.continuum.plus)
        na = self.atomistic.n
        # floats of the scratch the gradient's dense products are built in
        n = max(m.n for m in self.models)
        self._scratch_size = min(n * n, max(PRODUCT_SCRATCH, 7 * n))

        def plan(block, transpose=False):
            return _product_plan(*block[:2], transpose, self._scratch_size)

        # J, the objective's Hessian, is on each model the stencil_band of unit
        # forward differences on the elements with both ends in r_core <= |x|
        # <= r_a: the band, and its nonzero entries (shape, flat positions,
        # values) in row-major order with their plan.  The Hessian bands are
        # read at their in-matrix slots, with the plan of a dense (n, n) array
        self._j, self._hessian_plans = [], []
        for m in self.models:
            slot, row, col = _band_slots(m.n)
            inside = (dec.r_core <= np.abs(m.nodes)) & (np.abs(m.nodes) <= dec.r_a)
            unit = (inside[:-1] & inside[1:]).astype(float)
            band = stencil_band(m.n, 0, 0, 1, unit, 0 * unit, 0 * unit)
            vals, pos = band.ravel()[slot], row * m.n + col
            j = ((m.n, m.n), pos[vals != 0.0], vals[vals != 0.0])
            self._j.append((band, j, plan(j)))
            self._hessian_plans.append((slot, plan(((m.n, m.n), pos))))

        w = dec.overlap_width
        self.trapz = np.ones(w + 1)
        self.trapz[0] = self.trapz[-1] = 0.5
        # Overlap element k of a side spans nodes a[:, k] of u_a and c[:, k]
        # of the side's full nodal vector; its strain mismatch is
        # (u_a[a[1]] - u_a[a[0]]) - (u_c[c[1]] - u_c[c[0]]), so J's u_a-side
        # block is the side's J negated, side row r moved to u_a row
        # nodes[r] + r_a.  The mean-zero rows C hold the trapezoid weights on
        # each overlap's nodes, + on u_a and - on the side.  eta's rows take
        # the sides from the right: row 0 is the plus side's.
        self.overlaps = []
        for k, side in enumerate(self.models[1:], 1):
            c = np.flatnonzero(np.abs(side.nodes) <= dec.r_a)
            _, (_, pos, vals), _ = self._j[k]
            row, col = np.divmod(pos, side.n)
            j_ac = ((na, side.n), (side.nodes[row] + dec.r_a) * side.n + col, -vals)
            self.overlaps.append(Overlap(k, side.nodes[c] + dec.r_a, c, len(self.models) - 1 - k,
                                         j_ac, (plan(j_ac), plan(j_ac, True))))

        sizes = {u: len(range(m.n)[m.free_slice]) for m, (u, _) in zip(self.models, MODEL_BLOCKS)}
        sizes.update({lam: len(m.test_idx) for m, (_, lam) in zip(self.models, MODEL_BLOCKS)})
        sizes["eta"] = len(self.overlaps)
        self.layout = BlockLayout(sizes)
        # the last gradient's point
        self._point = None

    # ---------------- states ----------------

    def zero_state(self) -> SystemState:
        return SystemState(self.layout, np.zeros(self.layout.total))

    def _unknowns(self, state: SystemState) -> list:
        """Each model's unknowns, in model order."""
        return [state.vector[self.layout[u]] for u, _ in MODEL_BLOCKS]

    def _fields(self, state: SystemState):
        """Each model's unknowns and adjoint as full-length fields, in model
        order; an adjoint is zero off its model's test set."""
        fields, adjoints = [], []
        for m, u, (_, lam) in zip(self.models, self._unknowns(state), MODEL_BLOCKS):
            fields.append(m.embed(u))
            adjoint = np.zeros(m.n)
            adjoint[m.test_idx] = state.vector[self.layout[lam]]
            adjoints.append(adjoint)
        return fields, adjoints

    # ---------------- coupling quantities ----------------

    def objective(self, *unknowns) -> float:
        """Half the squared L2 norm of the overlap strain mismatch.

        unknowns are the models' unknowns in model order (u_a, u_c_minus,
        u_c_plus); the overlaps are summed in the order of self.overlaps.
        """
        u = [m.embed(x) for m, x in zip(self.models, unknowns)]
        d = [np.diff(u[0][ov.a]) - np.diff(u[ov.side][ov.c]) for ov in self.overlaps]
        return float(0.5 * sum(np.dot(x, x) for x in d))

    def mean_zero_constraints(self, *unknowns) -> tuple[float, ...]:
        """Exact integrals of (I u_a - u_c) over each overlap, in eta-row
        order: the positive component first."""
        u = [m.embed(x) for m, x in zip(self.models, unknowns)]
        values = [0.0] * len(self.overlaps)
        for ov in self.overlaps:
            values[ov.row] = float(np.dot(self.trapz, u[0][ov.a] - u[ov.side][ov.c]))
        return tuple(values)

    # ---------------- stationarity functional ----------------

    def lagrangian(self, state: SystemState) -> float:
        unknowns = self._unknowns(state)
        fields, _ = self._fields(state)
        total = self.objective(*unknowns)
        for m, field_, (_, lam) in zip(self.models, fields, MODEL_BLOCKS):
            total += np.dot(state.vector[self.layout[lam]], m.gradient(field_)[m.test_idx])
        for eta, c in zip(state.eta, self.mean_zero_constraints(*unknowns)):
            total += eta * c
        return float(total)

    def lagrangian_gradient(self, state: SystemState) -> np.ndarray:
        """Gradient of the stationarity functional; keeps its point (a copy of
        the vector, the fields, the adjoints and the Hessian bands) for a
        lagrangian_hessian call at an equal vector."""
        self._point = None
        fields, adjoints = self._fields(state)
        lay = self.layout
        g = np.zeros(lay.total)

        # J's products, u_a's summed over the overlaps in order:
        # (aa + ac_minus) + ac_plus
        product = functools.partial(_dense_product, scratch=np.zeros(self._scratch_size))
        parts = [product(plan, j[2], f) for (_, j, plan), f in zip(self._j, fields)]
        for ov in self.overlaps:
            ac, ca = ov.plans
            parts[0] = parts[0] + product(ac, ov.j_ac[2], fields[ov.side])
            parts[ov.side] = product(ca, ov.j_ac[2], fields[0]) + parts[ov.side]
        # the Hessians' in-matrix band entries
        hessians = [m.hessian(f) for m, f in zip(self.models, fields)]
        for k, (band, (slot, plan)) in enumerate(zip(hessians, self._hessian_plans)):
            parts[k] = parts[k] + product(plan, band.ravel()[slot], adjoints[k])
        # C^T eta: an overlap node lies in one mean-zero row only
        for ov in self.overlaps:
            parts[0][ov.a] += self.trapz * state.eta[ov.row]
            parts[ov.side][ov.c] -= self.trapz * state.eta[ov.row]
        for m, part, field_, (u, lam) in zip(self.models, parts, fields, MODEL_BLOCKS):
            g[lay[u]] = part[m.free_slice]
            g[lay[lam]] = m.gradient(field_)[m.test_idx]
        g[lay["eta"]] = self.mean_zero_constraints(*self._unknowns(state))
        self._point = (state.vector.copy(), fields, adjoints, hessians)
        return g

    @functools.cached_property
    def _kkt_entries(self):
        """(rows, cols, source, constants): entry e of K lies at (rows[e],
        cols[e]) and is flat[source[e]], where flat is the third-derivative
        bands with each model's J band added, the Hessians (as B and B^T) and
        constants (J's u_a-side blocks and C, both also transposed) end to
        end, so each position appears once.  Each group of entries is in row
        order, and one block of rows' groups have disjoint columns, so groups
        sorted by block keep every column's rows ascending: no sort."""
        lay, k = self.layout, INTERACTION_RANGE
        index = np.arange(lay.total, dtype=np.int32)
        # position in K of each model index; -1 where K leaves one out
        u_at = [np.full(m.n, -1, dtype=np.int32) for m in self.models]
        lam_at = [np.full(m.n, -1, dtype=np.int32) for m in self.models]
        for m, u, lam, (u_name, lam_name) in zip(self.models, u_at, lam_at, MODEL_BLOCKS):
            u[m.free_slice], lam[m.test_idx] = index[lay[u_name]], index[lay[lam_name]]
        groups, constants, offset, third = [], [], 0, sum((2 * k + 1) * m.n for m in self.models)
        for m, u, lam in zip(self.models, u_at, lam_at):
            slot, row, col = _band_slots(m.n)
            for row_at, f in ((u, offset + slot), (lam, offset + third + slot)):
                keep = (row_at[row] >= 0) & (u[col] >= 0)
                groups.append((row_at[row[keep]], u[col[keep]], f[keep]))
            offset += (2 * k + 1) * m.n
        offset += third
        groups += [(c, r, f) for r, c, f in groups[1::2]]
        for ov in self.overlaps:
            u_c, eta = u_at[ov.side], index[lay["eta"]][ov.row]
            row, col = np.divmod(ov.j_ac[1], ov.j_ac[0][1])
            for r, c, vals in ((u_at[0][row], u_c[col], ov.j_ac[2]),
                               (np.full(len(ov.a), eta), u_at[0][ov.a], self.trapz),
                               (np.full(len(ov.c), eta), u_c[ov.c], -self.trapz)):
                f = offset + np.arange(len(vals))
                groups += [(r, c, f), (c, r, f)]
                constants.append(vals)
                offset += len(vals)
        groups.sort(key=lambda g: g[0][0])  # a group's first row names its block
        rows, cols, source = (np.concatenate(x) for x in zip(*groups))
        return rows, cols, source, np.concatenate(constants)

    def lagrangian_hessian(self, state: SystemState) -> KktSystem:
        """Block Hessian of the stationarity functional at the given state.

        The point is the last gradient's at an equal vector, else the one
        lagrangian_gradient keeps at this one, and is released here.  The
        cached _kkt_entries take their values from the point's bands, and
        exact zeros are dropped: canonical CSC, no stored zero.
        """
        if self._point is None or not np.array_equal(self._point[0], state.vector):
            self.lagrangian_gradient(state)
        (_, fields, adjoints, hessians), self._point = self._point, None
        rows, cols, source, constants = self._kkt_entries
        thirds = [m.third_contraction(u, lam) for m, u, lam in zip(self.models, fields, adjoints)]
        for third, (band, _, _) in zip(thirds, self._j):
            third += band
        flat = np.concatenate([*(ab.ravel() for ab in thirds + hessians), constants])
        matrix = sp.csc_matrix((flat[source], (rows, cols)), shape=(self.layout.total,) * 2)
        matrix.eliminate_zeros()
        return KktSystem(matrix)

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

        try:
            vector, diag = damped_newton(self.zero_state().vector if initial is None
                                         else initial.vector.copy(), gradient, kkt_step,
                                         tolerance, diag)
        finally:
            self._point = None  # no Hessian follows the last gradient
        return SystemState(self.layout, vector), diag

    # ---------------- composite solution ----------------

    def composite_at(self, state: SystemState, sites) -> np.ndarray:
        """Composite displacement at ascending integer sites.

        Atomistic values on |site| <= r_a, the continuum interpolant of each
        side outside it, zero on and beyond the outer boundary.  Sites that
        all lie strictly inside one element beyond r_a take np.interp's own
        formula on that element, the same bits without its search.  Sites
        that are not integers, or that decrease, are a UsageError.
        """
        sites = np.asarray(sites)
        if not np.issubdtype(sites.dtype, np.integer):
            raise UsageError(f"composite sites must be integers, got {sites.dtype}")
        if np.any(sites[1:] < sites[:-1]):
            raise UsageError("composite sites must ascend")
        sides = self.models[1:]
        x = np.concatenate([m.x for m in sides])
        y = np.concatenate([m.embed(u) for m, u in zip(sides, self._unknowns(state)[1:])])
        r_a = self.dec.r_a
        e = int(np.searchsorted(x, sites[0])) - 1 if len(sites) else -1
        if 0 <= e < len(x) - 1 and sites[-1] < x[e + 1] and abs(sites[0]) > r_a:
            slope = (y[e + 1] - y[e]) / (x[e + 1] - x[e])
            return slope * (sites - x[e]) + y[e]
        # np.interp reads only the two knots that bracket a site, so a site
        # beyond r_a sees its own side's element; the sites between the two
        # sides lie in [-r_a, r_a] and take the atomistic values below
        vals = np.interp(sites, x, y, left=0.0, right=0.0)
        lo, hi = np.searchsorted(sites, -r_a), np.searchsorted(sites, r_a, side="right")
        vals[lo:hi] = state.u_a[sites[lo:hi] + r_a]
        return vals

    def assemble_atc_solution(self, state: SystemState) -> np.ndarray:
        """Composite displacement on every lattice site of the domain."""
        require_memory("the full composite", 2 * self.dec.r_c + 1, COMPOSITE_BYTES_PER_SITE)
        return self.composite_at(state, self.dec.sites)
