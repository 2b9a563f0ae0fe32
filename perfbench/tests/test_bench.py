"""Tests of the benchmark itself, on tiny radii.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import study  # noqa: E402  (first: it puts the checkout's src on the path)
import atc.coupling  # noqa: E402
import tracing  # noqa: E402
from atc import KktSolverError  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_smoke_run_emits_every_declared_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS
                for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for key, unit in declared.items():
        assert result["metrics"][key]["unit"] == unit, key
        assert isinstance(result["metrics"][key]["value"], (int, float)), key
    for w in WORKLOADS:
        assert result["metrics"][f"{w}.study_s"]["value"] > 0
        assert result["metrics"][f"{w}.coupling.newton_iters"]["value"] > 0
    assert result["metrics"]["oracle.reference.iterations"]["value"] > 0
    assert result["metrics"]["warm_sweep.harness.warm_initial_s"]["value"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_forced_solver_failure_is_counted_not_raised(monkeypatch, traced):
    def failing_solve(system, rhs, residual_bound=1e-10):
        raise KktSolverError("forced failure")

    monkeypatch.setattr(atc.coupling, "solve_kkt_linear", failing_solve)
    wl = WORKLOADS["far_field_sweep"]
    if traced:
        with instrument(Tracer()) as tracer:
            out = study.run_pass(wl, wl.core_radii(0, smoke=True), study.load_reference(), tracer)
        assert out["layers"]["coupling.newton_iters"] == 0
    else:
        out = study.run_pass(wl, wl.core_radii(0, smoke=True), study.load_reference())
    assert len(out["points"]) == 3
    for pt in out["points"]:
        assert any("KktSolverError: forced failure" in f for f in pt["failures"])
    assert atc.coupling.solve_kkt_linear is failing_solve


def test_wrong_answer_is_a_failure():
    wl = WORKLOADS["warm_sweep"]
    radii = wl.core_radii(0, smoke=True)
    reference = {study.reference_key(wl.gamma, r): 1.0 for r in radii}
    out = study.run_pass(wl, radii, reference)
    assert all(any("differs from the reference" in f for f in pt["failures"])
               for pt in out["points"])


def test_instrument_restores_every_patched_attribute():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._targets()]
    with instrument(Tracer()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer.a"):
        time.sleep(0.02)
        with tracer.span("inner.b"):
            time.sleep(0.03)
    self_s, calls, _ = tracer.totals()
    outer = tracer.spans[0].end - tracer.spans[0].start
    inner = tracer.spans[1].end - tracer.spans[1].start
    assert tracer.spans[1].parent == 0
    assert self_s["outer.a"] == pytest.approx(outer - inner)
    assert self_s["inner.b"] == pytest.approx(inner)
    assert calls == {"outer.a": 1, "inner.b": 1}
