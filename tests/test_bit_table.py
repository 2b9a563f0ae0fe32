"""tests/bit_table.py prints one well-formed line per key."""

import os
import re
import subprocess
import sys
from pathlib import Path

from test_coupling import NEWTON_ITERS_10, RECORDED_COLD_SOLVES

ROOT = Path(__file__).resolve().parents[1]


def test_bit_table_prints_key_count_err_l2_and_state_sha1():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "bit_table.py"), "1.5:10", "3.0:20"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" ") for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["1.5:10", "3.0:20"]
    assert [int(row[1]) for row in rows] == [NEWTON_ITERS_10, RECORDED_COLD_SOLVES[(3.0, 20)][1]]
    for _, _, err_l2, sha, load in rows:
        assert 0.0 < float(err_l2) < 1e-3 and repr(float(err_l2)) == err_l2
        assert re.fullmatch("[0-9a-f]{16}", sha)
        assert re.fullmatch("[0-9a-f]{12}", load)
