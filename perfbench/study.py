"""One run of a benchmark workload, in a fresh interpreter started by run.py.

    python3 perfbench/study.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

A pass solves the workload's core radii one at a time through atc's public
calls, times each stage around those calls and checks every answer.  Passes
repeat for about S seconds.  Prints one JSON line: per pass the per-point
results, the pass totals, the peak RSS so far and, when traced, the
per-layer metrics; then the library versions.  A point that raises any AtcError,
or fails a check, is recorded as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "atc" / "__init__.py").is_file():
    sys.exit(f"study: no atc sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from atc import (  # noqa: E402
    AtcError,
    CoupledProblem,
    build_graded_mesh,
    count_dof,
    energy_seminorm_error,
    make_decomposition,
    manufacture_forces,
    measure_errors,
    solve_full_atomistic,
)
from atc.harness import _warm_initial  # noqa: E402  (the seeding run_sweep uses)
from tracing import Tracer, instrument  # noqa: E402
from workloads import (  # noqa: E402
    ERR_L2_RTOL,
    KKT_RESIDUAL_BOUND,
    MIN_STEP_REDUCTION,
    ORACLE_CROSS_FACTOR,
    SLOPE_RANGE,
    WORKLOADS,
    Workload,
)

REFERENCE_FILE = HERE / "reference_err_l2.json"
LAYERS = ("domain", "models", "potentials", "coupling", "harness", "reference")


def reference_key(gamma: float, r_core: int) -> str:
    return f"{gamma:g}:{r_core}"


def load_reference() -> dict:
    """Recorded err_l2 per reference_key, written by make_reference.py."""
    return json.loads(REFERENCE_FILE.read_text())["err_l2"]


def _solve_point(wl: Workload, r_core: int, prev, pt: dict, span, reference: dict):
    """Build, seed, solve, measure and (oracle workload) cross-check one point.

    Fills pt with sizes, stage seconds and results as each stage completes;
    returns (problem, state) for warm-starting the next point.
    """
    clock = time.perf_counter
    t0 = clock()
    with span("domain.make_decomposition"):
        dec = make_decomposition(r_core, wl.gamma)
    with span("domain.build_graded_mesh"):
        mesh = build_graded_mesh(dec, wl.gamma)
    with span("models.manufacture_forces"):
        force = manufacture_forces(wl.gamma, dec)
    with span("coupling.CoupledProblem"):
        problem = CoupledProblem(dec, mesh, wl.gamma, force=force)
    t1 = clock()
    pt.update(r_c=dec.r_c, dof=count_dof(dec, mesh), unknowns=problem.layout.total,
              force_sites=len(force.values), setup_s=t1 - t0)
    initial = None
    if prev is not None:
        with span("harness.warm_initial"):
            initial = _warm_initial(problem, *prev)
    t2 = clock()
    with span("coupling.newton_solve"):
        state, diag = problem.newton_solve(initial)
    t3 = clock()
    pt.update(seed_s=t2 - t1, solve_s=t3 - t2, newton_iters=diag.iterations,
              kkt_residual_max=max(diag.kkt_residuals, default=0.0))
    with span("harness.measure_errors"):
        err_l2, _ = measure_errors(problem, state)
    t4 = clock()
    pt.update(measure_s=t4 - t3, err_l2=err_l2)
    if not diag.converged:
        pt["failures"].append("newton_solve returned without convergence")
    if pt["kkt_residual_max"] > KKT_RESIDUAL_BOUND:
        pt["failures"].append(f"KKT relative residual {pt['kkt_residual_max']:.2e} "
                              f"> {KKT_RESIDUAL_BOUND:g}")
    ref = reference.get(reference_key(wl.gamma, r_core))
    if ref is None:
        pt["failures"].append("no recorded reference err_l2 for this radius")
    elif abs(err_l2 - ref) > ERR_L2_RTOL * ref:
        pt["failures"].append(f"err_l2 {err_l2!r} differs from the reference {ref!r} "
                              f"by more than {ERR_L2_RTOL:g} relative")
    if wl.oracle:
        with span("reference.solve_full_atomistic"):
            oracle = solve_full_atomistic(dec, wl.gamma)
        t5 = clock()
        pt.update(oracle_s=t5 - t4, oracle_iterations=oracle.iterations,
                  oracle_sites=len(oracle.sites))
        # both fields are zero beyond the outer boundary
        cross = energy_seminorm_error(np.pad(problem.assemble_atc_solution(state), 1),
                                      np.pad(oracle.values, 1))
        if not cross <= ORACLE_CROSS_FACTOR * err_l2:
            pt["failures"].append(f"distance to the lattice solve {cross:.3e} > "
                                  f"{ORACLE_CROSS_FACTOR:g} x err_l2")
    return problem, state


def _rate_checks(points: list[dict]):
    """The paper's checks: fitted slope of err_l2 against DoF, and per-step drop."""
    for a, b in zip(points, points[1:]):
        if "err_l2" in a and "err_l2" in b and a["err_l2"] < MIN_STEP_REDUCTION * b["err_l2"]:
            b["failures"].append(f"err_l2 dropped only {a['err_l2'] / b['err_l2']:.2f}x "
                                 f"from r_core {a['r_core']}")
    done = [p for p in points if "err_l2" in p]
    if len(done) < 3:
        return
    slope = float(np.polyfit(np.log([p["dof"] for p in done]),
                             np.log([p["err_l2"] for p in done]), 1)[0])
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        for p in points:
            p["failures"].append(f"fitted slope {slope:.3f} outside {SLOPE_RANGE}")


def run_pass(wl: Workload, r_cores, reference: dict, tracer: Tracer | None = None) -> dict:
    """Solve every radius of the workload in order; never raises AtcError."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    points, prev = [], None
    t0 = time.perf_counter()
    for r_core in r_cores:
        pt = {"r_core": r_core, "failures": []}
        points.append(pt)
        try:
            solved = _solve_point(wl, r_core, prev, pt, span, reference)
        except AtcError as err:
            pt["failures"].append(f"{type(err).__name__}: {err}")
            solved = None
        prev = solved if wl.warm_start and not pt["failures"] else None
        del solved  # frees a cold point's problem before the next one is built
    study_s = time.perf_counter() - t0
    if wl.rate_checks:
        _rate_checks(points)
    out = {
        "points": points,
        "study_s": study_s,
        "setup_s": sum(p.get("setup_s", 0.0) for p in points),
        "solve_s": sum(p.get("solve_s", 0.0) for p in points),
        "oracle_s": sum(p.get("oracle_s", 0.0) for p in points),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, wl, points, study_s)
    return out


def layer_metrics(tracer: Tracer, wl: Workload, points: list[dict], study_s: float) -> dict:
    """Per-layer metrics of one traced pass; times are self seconds."""
    self_s, calls, counts = tracer.totals()
    spans = tracer.spans

    def total(key):
        return sum(p.get(key, 0) for p in points)

    solves = {i for i, s in enumerate(spans) if s.name == "coupling.newton_solve"}
    trials = sum(1 for s in spans
                 if s.name == "coupling.lagrangian_gradient" and s.parent in solves) - len(solves)
    potentials = [n for n in self_s if n.startswith("potentials.")]
    last = points[-1]
    coupled_last = sum(last.get(k, 0.0) for k in ("setup_s", "solve_s", "measure_s"))
    m = {
        "domain.mesh_s": self_s["domain.make_decomposition"] + self_s["domain.build_graded_mesh"],
        "domain.dof": total("dof"),
        "domain.r_c": total("r_c"),
        "models.manufacture_forces_s": self_s["models.manufacture_forces"],
        "models.continuum_init_s": self_s["models.ContinuumModel"],
        "models.force_sites": total("force_sites"),
        "potentials.eval_s": sum(self_s[n] for n in potentials),
        "potentials.values_evaluated": sum(counts[n] for n in potentials),
        "coupling.problem_init_s": self_s["coupling.CoupledProblem"],
        "coupling.hessian_s": self_s["coupling.lagrangian_hessian"],
        "coupling.hessian_calls": calls["coupling.lagrangian_hessian"],
        "coupling.kkt_unknowns": total("unknowns"),
        "coupling.kkt_nnz": counts["coupling.lagrangian_hessian"],
        "coupling.kkt_solve_s": self_s["coupling.solve_kkt_linear"],
        "coupling.kkt_rel_residual_max": max(
            (s.count for s in spans if s.name == "coupling.solve_kkt_linear"), default=0.0),
        "coupling.gradient_s": self_s["coupling.lagrangian_gradient"],
        "coupling.gradient_calls": calls["coupling.lagrangian_gradient"],
        "coupling.newton_iters": total("newton_iters"),
        "coupling.line_search_trials": trials,
        "coupling.step_accept_ratio": total("newton_iters") / trials if trials else 0.0,
        "coupling.assemble_atc_solution_s": self_s["coupling.assemble_atc_solution"],
        "harness.measure_errors_s": self_s["harness.measure_errors"],
        "harness.warm_initial_s": self_s["harness.warm_initial"],
        "reference.solve_full_atomistic_s": self_s["reference.solve_full_atomistic"],
        "reference.iterations": total("oracle_iterations"),
        "reference.sites": total("oracle_sites"),
        "reference.cost_ratio": (last["oracle_s"] / coupled_last
                                 if wl.oracle and "oracle_s" in last else 0.0),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
    m["self.other_s"] = study_s - sum(s.end - s.start for s in spans if s.parent < 0)
    return m


def environment() -> dict:
    blas = {name: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for name, mod in (("numpy", np), ("scipy", scipy))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['numpy']['name']} {blas['numpy']['version']}",
        "scipy_blas": f"{blas['scipy']['name']} {blas['scipy']['version']}",
    }


def run_passes(wl: Workload, r_cores, reference: dict, seconds: float, trace: bool) -> list:
    """Repeat passes for about `seconds`; with trace, alternate untraced and traced.

    Stops at the pass count whose end lies nearest to `seconds`: another pass
    starts only while the elapsed time plus half a mean pass is below it.
    Each pass records the process's peak RSS so far.
    """
    start = time.perf_counter()
    passes = []
    while True:
        if trace and len(passes) % 2 == 1:
            with instrument(Tracer()) as tracer:
                passes.append(run_pass(wl, r_cores, reference, tracer))
        else:
            passes.append(run_pass(wl, r_cores, reference))
        passes[-1]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(passes)) >= seconds and (not trace or len(passes) >= 2):
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    passes = run_passes(wl, wl.core_radii(args.seed, args.smoke), load_reference(),
                        args.seconds, bool(args.trace))
    print(json.dumps({"passes": passes, "environment": environment()}))


if __name__ == "__main__":
    main()
