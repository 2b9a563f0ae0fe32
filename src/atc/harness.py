"""Experiment harness: single runs, radius sweeps, CSV output, rate fits."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .coupling import (DEFAULT_TOLERANCE, MODEL_BLOCKS, CoupledProblem, SystemState,
                       check_tolerance)
from .domain import (build_graded_mesh, count_dof, lattice_chunks, make_decomposition,
                     require_load_memory)
from .exceptions import ConfigurationError, KktSolverError, NonConvergenceError, UsageError
from .models import exact_solution
from .reference import sum_sq_and_max

CSV_HEADER = "r_core,r_a,r_c,dof,err_l2,err_inf,objective,newton_iters,residual,wall_time,converged"


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep point: geometry, unknown count, errors, solver diagnostics."""

    r_core: int
    r_a: int
    r_c: int
    dof: int
    err_l2: float
    err_inf: float
    objective: float
    newton_iters: int
    residual: float
    wall_time: float
    converged: bool

    def to_csv_row(self) -> str:
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "bool" or isinstance(v, bool):
                parts.append("true" if v else "false")
            else:
                parts.append(repr(v) if isinstance(v, float) else str(v))
        return ",".join(parts)

    @classmethod
    def from_csv_row(cls, row: str) -> "ConvergenceRecord":
        vals = row.strip().split(",")
        names = [f.name for f in fields(cls)]
        if len(vals) != len(names):
            raise UsageError(f"expected {len(names)} CSV fields, got {len(vals)}")
        kw = {}
        for f, v in zip(fields(cls), vals):
            if f.name == "converged":
                if v not in ("true", "false"):
                    raise ValueError(f"converged must be true or false, got {v!r}")
                kw[f.name] = v == "true"
            elif f.type == "int":
                kw[f.name] = int(v)
            else:
                kw[f.name] = float(v)
        # a converged point enters the log-log rate fit
        if kw["converged"] and not (kw["dof"] > 0 and 0.0 < kw["err_l2"] < np.inf):
            raise ValueError(f"converged row needs positive dof and finite positive "
                             f"err_l2, got dof={kw['dof']}, err_l2={kw['err_l2']!r}")
        return cls(**kw)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in records)
    return "\n".join(lines) + "\n"


def _open_output(path, mode="w"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot write output file: {err}") from err


def write_csv(records, path):
    with _open_output(path) as fh:
        fh.write(records_to_csv(records))


def read_csv(path) -> list[ConvergenceRecord]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    except OSError as err:
        raise UsageError(f"cannot read CSV file: {err}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not valid UTF-8: {err}") from err
    if not lines or lines[0][1] != CSV_HEADER:
        raise UsageError(f"{path}: missing or unexpected CSV header")
    records = []
    for lineno, ln in lines[1:]:
        try:
            records.append(ConvergenceRecord.from_csv_row(ln))
        except ValueError as err:
            raise UsageError(f"{path}:{lineno}: {err}") from err
    return records


def write_plot_data(records, path):
    """Two-column (dof, err_l2) file, gnuplot friendly."""
    with _open_output(path) as fh:
        fh.write("# dof err_l2\n")
        for r in records:
            fh.write(f"{r.dof} {r.err_l2!r}\n")


def measure_errors(problem: CoupledProblem, state: SystemState) -> tuple[float, float]:
    """Errors of the composite solution against the exact field.

    The energy seminorm and max norm of the first differences, on the domain
    padded by one site per end, where the composite is zero and the exact
    field is evaluated in closed form, so the boundary-crossing differences
    measure the real discrepancy.  reference.sum_sq_and_max sums them over
    chunks of sites that overlap by one, so each difference is taken once.
    """
    r_c = problem.dec.r_c
    sq, largest = sum_sq_and_max(
        np.diff(problem.composite_at(state, xs) - exact_solution(xs, problem.gamma))
        for xs in lattice_chunks(-r_c - 1, r_c + 1, overlap=1))
    return float(np.sqrt(sq)), largest


def _solve_point(dec, mesh, gamma, tolerance, prev=None, record_errors=False):
    """Build on a checked mesh, seed, solve and measure one point, in wall_time.

    prev, the (problem, state) of a solved point, seeds a warm start.  A
    NonConvergenceError gives an unconverged record; with record_errors, so
    do a failed linear solve and an unevaluable state, and that record has
    no iterations and a NaN residual.
    """
    t0 = time.perf_counter()
    problem = CoupledProblem(dec, mesh, gamma)
    initial = _warm_initial(problem, *prev) if prev is not None else None
    state = None
    try:
        state, diag = problem.newton_solve(initial, tolerance)
    except NonConvergenceError as err:
        diag = err.diagnostics
    except (ConfigurationError, KktSolverError):
        if not record_errors:
            raise
        diag = None
    converged = state is not None
    if converged:
        err_l2, err_inf = measure_errors(problem, state)
        objective = problem.objective(state.u_a, state.u_c_minus, state.u_c_plus)
    else:
        err_l2 = err_inf = objective = float("nan")
    record = ConvergenceRecord(
        r_core=dec.r_core, r_a=dec.r_a, r_c=dec.r_c, dof=count_dof(dec, mesh),
        err_l2=err_l2, err_inf=err_inf, objective=objective,
        newton_iters=diag.iterations if diag is not None else 0,
        residual=diag.residuals[-1] if diag is not None else float("nan"),
        wall_time=time.perf_counter() - t0, converged=converged)
    return record, problem, state


def run_single(r_core: int, gamma: float, norm: str = "energy",
               tolerance: float = DEFAULT_TOLERANCE) -> ConvergenceRecord:
    """Check, build, solve and measure one coupled problem."""
    [(dec, mesh)] = check_inputs([r_core], gamma, norm, tolerance, ())
    return _solve_point(dec, mesh, gamma, tolerance)[0]


def _warm_initial(problem: CoupledProblem, prev_problem: CoupledProblem,
                  prev_state: SystemState) -> SystemState:
    """Seed a new problem from the previous composite solution (adjoints zero)."""
    state = problem.zero_state()
    for m, (u, _) in zip(problem.models, MODEL_BLOCKS):
        sampled = prev_problem.composite_at(prev_state, m.nodes)
        state.vector[problem.layout[u]] = sampled[m.free_slice]
    return state


def check_inputs(r_cores, gamma: float, norm: str, tolerance: float, paths) -> list:
    """Each radius's (decomposition, graded mesh), in order, for the solve.

    Raises a UsageError for an invalid tolerance or radius, a radius whose
    loads would not fit in memory (domain.require_load_memory), a gamma
    whose exact field squares to 0 at site 1, so that every error would
    read 0, two output paths that name the same file, or one that cannot
    be opened.  The radii and the mesh are arithmetic, so this solves
    nothing.  A file the probe creates is removed again, so a failed run
    leaves none.
    """
    check_tolerance(tolerance)
    points = []
    for r_core in r_cores:
        dec = make_decomposition(r_core, gamma, norm=norm)
        mesh = build_graded_mesh(dec, gamma, norm=norm)
        require_load_memory(dec, mesh)
        points.append((dec, mesh))
    if exact_solution(1.0, gamma) ** 2 == 0.0:
        raise UsageError(f"gamma {gamma} is too large: its squared errors underflow to 0")
    named = {}
    for path in (p for p in paths if p is not None):
        real = os.path.realpath(path)
        if real in named:
            raise UsageError(f"outputs {named[real]} and {path} name the same file")
        named[real] = path
    # the probe opens the file a path resolves to, which for a dangling
    # symlink is the missing target, not the link
    for real, path in named.items():
        existed = os.path.exists(real)
        _open_output(path, "a").close()
        if not existed:
            os.remove(real)
    return points


def run_sweep(r_cores, gamma: float, norm: str = "energy",
              tolerance: float = DEFAULT_TOLERANCE, warm_start: bool = False,
              csv_path=None, plot_path=None,
              progress=None) -> list[ConvergenceRecord]:
    """Solve a sequence of core radii; solver failures are recorded, not raised.

    A non-converged Newton run, a failed linear solve or an unevaluable state
    gives a record with converged false and NaN errors; a UsageError raises.
    check_inputs runs before the first solve, and each radius is solved on
    the mesh it built.
    """
    records = []
    prev = None
    for dec, mesh in check_inputs(r_cores, gamma, norm, tolerance, (csv_path, plot_path)):
        record, problem, state = _solve_point(dec, mesh, gamma, tolerance, prev,
                                              record_errors=True)
        records.append(record)
        if warm_start:
            prev = (problem, state) if state is not None else None
        if progress is not None:
            progress(record)
    if csv_path is not None:
        write_csv(records, csv_path)
    if plot_path is not None:
        write_plot_data(records, plot_path)
    return records


def fit_rate(records) -> float:
    """Least-squares slope of log(err_l2) against log(dof), converged points only."""
    pts = [(r.dof, r.err_l2) for r in records if r.converged]
    if len(pts) < 3:
        raise UsageError(f"rate fit needs at least 3 converged records, got {len(pts)}")
    if len({p[0] for p in pts}) < 2:
        raise UsageError("rate fit needs converged records at two or more distinct dof")
    dof = np.log([p[0] for p in pts])
    err = np.log([p[1] for p in pts])
    return float(np.polyfit(dof, err, 1)[0])
