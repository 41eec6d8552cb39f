"""Property tests of the count-chain samplers' determinism contract."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cascadekit.core import (
    CascadeParams,
    sample_terminal,
    sample_terminal_pair,
)

#: Replica chunk size of the samplers.
CHUNK = 8192

# derandomized and without an example database, so every run draws the
# same examples and writes nothing to disk
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=30)

params_st = st.builds(CascadeParams,
                      base=st.sampled_from([2, 3]),
                      hurst=st.sampled_from([None, 0.3, 0.5, 0.7, 1.0]),
                      seed=st.integers(0, 2**64 - 1))


@PROPERTY
@given(params=params_st, n=st.integers(0, 10), m=st.integers(0, 6),
       reps=st.integers(1, 2 * CHUNK + 100))
def test_pair_matches_single_depth_draws(params, n, m, reps):
    """Both depths of the pair come from the same chain as sample_terminal."""
    z_n, z_nm = sample_terminal_pair(params, n, m, reps)
    assert np.array_equal(z_n, sample_terminal(params, n, reps))
    assert np.array_equal(z_nm, sample_terminal(params, n + m, reps))


@PROPERTY
@given(params=params_st, n=st.integers(0, 10), k=st.integers(1, 2))
def test_more_chunks_extend_the_draws(params, n, k):
    """Adding a replica chunk keeps every earlier draw."""
    short = sample_terminal(params, n, k * CHUNK)
    long = sample_terminal(params, n, (k + 1) * CHUNK)
    assert np.array_equal(long[: k * CHUNK], short)
