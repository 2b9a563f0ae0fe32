"""Property tests over the supported parameter range."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atc import AtcError, UsageError, optimal_radii, run_single


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gamma=st.floats(0.55, 3.0), r_core=st.integers(4, 40),
       norm=st.sampled_from(["energy", "uniform"]))
def test_run_single_converges_or_raises_a_documented_error(gamma, r_core, norm):
    try:
        r_c = optimal_radii(r_core, gamma, norm)[1]
    except UsageError:
        # radii beyond float64's exact integers are rejected before any solve
        with pytest.raises(UsageError):
            run_single(r_core, gamma, norm)
        return
    # keeps every example cheap: a solve at r_c = 1.2e5 takes about 0.06 s
    assume(r_c <= 2e5)
    try:
        record = run_single(r_core, gamma, norm)
    except AtcError:
        return
    assert record.converged
    assert 0.0 < record.err_l2 < np.inf
