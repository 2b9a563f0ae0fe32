"""Print the bits of cold coupled solves, one line per gamma:r_core key.

Each line holds the key, the Newton iteration count, repr(err_l2), the
first 16 hex digits of the SHA-1 of the solved state vector's bytes and the
first 12 of the SHA-1 of the continuum loads' bytes (minus side, then plus
side).  Two trees whose tables are identical solve those keys bit for bit
from the same loads; compare them on the same BLAS kernel with one BLAS
thread, since the last bits of a dense product depend on both.

Run:  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bit_table.py [KEY ...]

Without keys, it takes those of perfbench/reference_err_l2.json (read only).
"""

import hashlib
import json
import sys
from pathlib import Path

from atc import CoupledProblem, build_graded_mesh, make_decomposition, measure_errors

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_err_l2.json"


def row(key: str) -> str:
    """The table's line for one key, from a cold solve."""
    gamma, r_core = key.split(":")
    gamma, r_core = float(gamma), int(r_core)
    dec = make_decomposition(r_core, gamma)
    problem = CoupledProblem(dec, build_graded_mesh(dec, gamma), gamma)
    state, diag = problem.newton_solve()
    err_l2, _ = measure_errors(problem, state)
    sha = hashlib.sha1(state.vector.tobytes()).hexdigest()[:16]
    sides = problem.continuum.minus, problem.continuum.plus
    load = hashlib.sha1(b"".join(side.load.tobytes() for side in sides)).hexdigest()[:12]
    return f"{key} {diag.iterations} {err_l2!r} {sha} {load}"


def main(keys) -> None:
    if not keys:
        keys = list(json.loads(REFERENCE.read_text())["err_l2"])
    for key in keys:
        print(row(key), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
