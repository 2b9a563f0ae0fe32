"""Experiment harness: single runs, radius sweeps, CSV output, rate fits."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .coupling import CoupledProblem, NewtonOptions, SystemState
from .domain import build_graded_mesh, count_dof, make_decomposition
from .exceptions import ConfigurationError, KktSolverError, NonConvergenceError, UsageError
from .models import exact_solution
from .reference import energy_seminorm_error, max_norm_error

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
                kw[f.name] = v.lower() == "true"
            elif f.type == "int":
                kw[f.name] = int(v)
            else:
                kw[f.name] = float(v)
        return cls(**kw)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in records)
    return "\n".join(lines) + "\n"


def write_csv(records, path):
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))


def read_csv(path) -> list[ConvergenceRecord]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise UsageError("missing or unexpected CSV header")
    return [ConvergenceRecord.from_csv_row(ln) for ln in lines[1:]]


def write_plot_data(records, path):
    """Two-column (dof, err_l2) file, gnuplot friendly."""
    with open(path, "w") as fh:
        fh.write("# dof err_l2\n")
        for r in records:
            fh.write(f"{r.dof} {r.err_l2!r}\n")


def measure_errors(problem: CoupledProblem, state: SystemState) -> tuple[float, float]:
    """Errors of the composite solution against the exact field.

    Fields are compared on the domain padded by one site per end, each
    extended by its true value there (the composite is zero past the outer
    boundary; the exact field is evaluated in closed form), so the
    boundary-crossing differences measure the real discrepancy.
    """
    vals = np.concatenate(([0.0], problem.assemble_atc_solution(state), [0.0]))
    xs = np.arange(-problem.dec.r_c - 1, problem.dec.r_c + 2)
    ref = exact_solution(xs, problem.gamma)
    return energy_seminorm_error(vals, ref), max_norm_error(vals, ref)


def _build_problem(r_core, gamma, norm) -> CoupledProblem:
    dec = make_decomposition(r_core, gamma, norm=norm)
    mesh = build_graded_mesh(dec, gamma, norm=norm)
    return CoupledProblem(dec, mesh, gamma)


def _solve_point(r_core, gamma, norm, options, initial=None, problem=None,
                 record_errors=False):
    """Solve and measure one point; a NonConvergenceError gives an unconverged record.

    With record_errors, so do a failed linear solve and an unevaluable
    state; that record has no iterations and a NaN residual.
    """
    t0 = time.perf_counter()
    if problem is None:
        problem = _build_problem(r_core, gamma, norm)
    mesh = problem.mesh
    dec = problem.dec
    opts = options or NewtonOptions()
    state = None
    try:
        state, diag = problem.newton_solve(initial, opts)
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
        r_core=r_core, r_a=dec.r_a, r_c=dec.r_c, dof=count_dof(dec, mesh),
        err_l2=err_l2, err_inf=err_inf, objective=objective,
        newton_iters=diag.iterations if diag is not None else 0,
        residual=diag.residuals[-1] if diag is not None else float("nan"),
        wall_time=time.perf_counter() - t0, converged=converged)
    return record, problem, state


def run_single(r_core: int, gamma: float, norm: str = "energy",
               options: NewtonOptions | None = None) -> ConvergenceRecord:
    """Build, solve and measure one coupled problem."""
    record, _, _ = _solve_point(r_core, gamma, norm, options)
    return record


def _warm_initial(problem: CoupledProblem, prev_problem: CoupledProblem,
                  prev_state: SystemState) -> SystemState:
    """Seed a new problem from the previous composite solution (adjoints zero)."""
    state = problem.zero_state()
    prev_vals = prev_problem.assemble_atc_solution(prev_state)

    def sample(sites):
        sites = np.asarray(sites)
        out = np.zeros(len(sites), dtype=float)
        inside = np.abs(sites) <= prev_problem.dec.r_c
        out[inside] = prev_vals[sites[inside] + prev_problem.dec.r_c]
        return out

    state.u_a[:] = sample(problem.dec.atomistic_sites)
    minus, plus = problem.continuum.minus, problem.continuum.plus
    state.u_c_minus[:] = sample(minus.nodes)[minus.free_slice]
    state.u_c_plus[:] = sample(plus.nodes)[plus.free_slice]
    return state


def run_sweep(r_cores, gamma: float, norm: str = "energy",
              options: NewtonOptions | None = None, warm_start: bool = False,
              csv_path=None, plot_path=None,
              progress=None) -> list[ConvergenceRecord]:
    """Solve a sequence of core radii; solver failures are recorded, not raised.

    A non-converged Newton run, a failed linear solve or an unevaluable state
    gives a record with converged false and NaN errors; a UsageError raises.
    """
    records = []
    prev = None
    for r_core in r_cores:
        initial = None
        problem = None
        if warm_start and prev is not None and prev[1] is not None:
            problem = _build_problem(r_core, gamma, norm)
            initial = _warm_initial(problem, *prev)
        record, problem, state = _solve_point(r_core, gamma, norm, options,
                                              initial, problem, record_errors=True)
        records.append(record)
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
    dof = np.log([p[0] for p in pts])
    err = np.log([p[1] for p in pts])
    return float(np.polyfit(dof, err, 1)[0])


def strip_timing(records) -> list[ConvergenceRecord]:
    """Copies with wall_time zeroed, for reproducible golden output."""
    return [replace(r, wall_time=0.0) for r in records]
