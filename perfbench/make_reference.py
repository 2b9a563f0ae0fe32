"""Record the reference err_l2 values the benchmark checks against.

    python3 perfbench/make_reference.py

Runs a cold sweep (atc.run_sweep) over every core radius any workload can
use, for both seed parities and in smoke mode, and writes
perfbench/reference_err_l2.json.  Rerun it only when a change to atc is meant
to change the numerical answers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CHILD_ENV, WORKLOADS  # noqa: E402

os.environ.update(CHILD_ENV)  # before numpy loads, as in a benchmark run

from atc import run_sweep  # noqa: E402
from study import environment, reference_key  # noqa: E402


def main():
    radii = defaultdict(set)
    for wl in WORKLOADS.values():
        for seed in (0, 1):
            for smoke in (False, True):
                radii[wl.gamma].update(wl.core_radii(seed, smoke))
    values = {}
    for gamma, rs in sorted(radii.items()):
        for rec in run_sweep(sorted(rs), gamma,
                             progress=lambda r: print(r.r_core, r.err_l2, file=sys.stderr)):
            if not rec.converged:
                sys.exit(f"r_core {rec.r_core} (gamma {gamma}) did not converge")
            values[reference_key(gamma, rec.r_core)] = rec.err_l2
    out = {"method": "cold atc.run_sweep, energy norm, default NewtonOptions",
           "environment": environment(), "err_l2": values}
    (HERE / "reference_err_l2.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
