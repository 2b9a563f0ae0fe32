"""In-memory spans around calls into atc, recorded from the benchmark side.

The benchmark opens spans around the public calls it makes.  For the calls
atc makes internally (Hessian and gradient assembly, the saddle-point solve,
the composite solution, the potential evaluations and the subproblem model
constructors) `instrument` temporarily replaces the module attributes those
calls are looked up through with wrappers that open a span.  No atc source is
changed, and nothing is patched in untraced passes.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import atc.coupling
import atc.models
import atc.reference
import numpy as np

_POTENTIAL_FUNCTIONS = {
    atc.models: ("site_energy_array", "site_gradient_arrays", "site_hessian_arrays",
                 "site_third_arrays", "cauchy_born_energy_density", "cauchy_born_d1",
                 "cauchy_born_d2", "cauchy_born_d3"),
    atc.reference: ("site_gradient_arrays", "site_hessian_arrays"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "count")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.count = 0.0


class Tracer:
    """Nested spans kept in memory; each names its parent by index (-1: none)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self seconds, call count, summed count field."""
        self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            self_s[s.name] += own
            calls[s.name] += 1
            counts[s.name] += s.count
        return self_s, calls, counts


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if count is not None:
                rec.count = float(count(args, out))
            return out
    return wrapper


def _targets():
    """(owner, attribute, span name, count) for every internally-called hook."""
    problem = atc.coupling.CoupledProblem
    yield atc.coupling, "AtomisticModel", "models.AtomisticModel", None
    yield atc.coupling, "ContinuumModel", "models.ContinuumModel", None
    yield (problem, "lagrangian_hessian", "coupling.lagrangian_hessian",
           lambda args, out: out.matrix.nnz)
    yield problem, "lagrangian_gradient", "coupling.lagrangian_gradient", None
    yield (atc.coupling, "solve_kkt_linear", "coupling.solve_kkt_linear",
           lambda args, out: out[1])
    yield problem, "assemble_atc_solution", "coupling.assemble_atc_solution", None
    for module, names in _POTENTIAL_FUNCTIONS.items():
        for name in names:
            yield (module, name, f"potentials.{name}",
                   lambda args, out: np.size(args[0]))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route atc's internal calls through span wrappers; restore on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
