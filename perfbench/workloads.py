"""Workload table shared by the runner and the per-pass child.

Standard library only: the runner imports this module without numpy or atc.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One convergence study: a sequence of core radii solved one at a time."""

    gamma: float
    radii: tuple[int, ...]
    smoke_radii: tuple[int, ...]
    warm_start: bool = False
    oracle: bool = False
    rate_checks: bool = False

    def core_radii(self, seed: int, smoke: bool = False) -> list[int]:
        """Core radii of one pass; odd seeds shift every radius by one site.

        The shift lets a claim be re-checked on sizes it was not tuned on,
        while keeping the cost change per seed small (r_c grows by about 1.6%
        at r_core = 160).
        """
        return [r + seed % 2 for r in (self.smoke_radii if smoke else self.radii)]


WORKLOADS = {
    # The paper's headline study: r_c ~ r_a^2.5, so O(r_c) set-up and
    # error measurement dominate time and memory.  It stops at r_core = 160:
    # a pass to 320 takes about 15 s and 3.1 GB.
    "far_field_sweep": Workload(1.5, (10, 20, 40, 80, 160), (10, 20, 40),
                                rate_checks=True),
    # Small r_c, large KKT systems: Hessian assembly and the saddle-point
    # solve dominate, set-up is under 2%.
    "kkt_sweep": Workload(3.0, (80, 160, 320, 640), (20, 40)),
    # Warm-started Newton takes 1-2 iterations, so per-solve fixed costs
    # and the O(r_c) seeding dominate.
    "warm_sweep": Workload(1.5, (10, 20, 40, 80, 160), (10, 20, 40),
                           warm_start=True),
    # The only workload that runs the full-lattice reference solve.  It stops
    # at r_core = 40: at 80 the oracle takes 7 s, and a 30 s run would hold
    # only four passes.
    "oracle": Workload(1.5, (10, 20, 40), (10, 20), oracle=True),
}

# Environment of every benchmark interpreter.  One BLAS/OpenMP thread (nproc
# is 2 on the reference machine).  NumPy's transparent-huge-page advice is
# off: with it, the cost of page faults in the O(r_c) arrays depends on the
# kernel's memory fragmentation.  In five alternating pairs of 25 s runs of
# far_field_sweep, the spread of study_s was 13% with the advice, 5% without.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMPY_MADVISE_HUGEPAGE": "0"}

# Relative tolerance of err_l2 against the recorded reference values.  Newton
# stops at a 1e-10 residual, so independently converged solves (cold against
# warm start) agree to about 1.5e-7 relative; a real change in the
# discretization moves err_l2 by tens of percent.
ERR_L2_RTOL = 1e-6

# Bound on the relative residual of every saddle-point solve.
KKT_RESIDUAL_BOUND = 1e-10

# The paper's rate checks on far_field_sweep.
SLOPE_RANGE = (-2.3, -1.7)
MIN_STEP_REDUCTION = 3.0

# The coupled solution must lie within this many err_l2 of the full-lattice
# solution (energy seminorm), as in the acceptance suite's oracle criterion.
ORACLE_CROSS_FACTOR = 5.0
