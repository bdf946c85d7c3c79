"""``validation.median`` and ``cleaning.linear_quantile`` give the same bits
as ``np.median`` and ``np.quantile`` (the sign of a zero, and the sign and
payload of a NaN, included), on draws with ties, signed zeros, infinities,
NaN and values near the largest float. Both sides run under one
``np.errstate``, so a warning raised on one side only (pytest turns
warnings into errors) cannot end the comparison early."""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shipdataprep.cleaning import linear_quantile
from shipdataprep.validation import median

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, 1e306, -1e306, 5e-324]
# few distinct values, so that ties and signed zeros are common
cells = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers(-3, 3).map(float))
samples = st.one_of(
    st.lists(cells, min_size=1, max_size=2),
    st.lists(cells, min_size=3, max_size=40),
).map(np.array)
quantiles = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=60, deadline=None)
@given(samples)
@example(np.array([-0.0]))  # numpy's mean turns a -0.0 middle value into 0.0
@example(np.array([-0.0, -0.0]))
@example(np.array([1.0, -0.0, 3.0]))
@example(np.array([2.0, np.nan, 1.0]))
def test_median_matches_numpy_bits(values):
    with np.errstate(all="ignore"):
        want = float(np.median(values))
        got = median(values)
    assert bits(got) == bits(want)


@settings(max_examples=60, deadline=None)
@given(samples, quantiles)
@example(np.array([1.0, np.inf]), 1.0)  # numpy's lerp of inf and inf is NaN
@example(np.array([3.0, -0.0, 0.0, 1.0]), 1.0)
@example(np.array([-0.0, 0.0, -0.0]), 0.5)
@example(np.array([5.0]), 0.995)
def test_linear_quantile_matches_numpy_bits(values, q):
    with np.errstate(all="ignore"):
        want = float(np.quantile(values, q))
        got = linear_quantile(values, q)
    assert bits(got) == bits(want)
