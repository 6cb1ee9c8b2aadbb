"""``CoeffSet.to_csv`` then ``from_csv`` gives back the table.

Tables are drawn at bands 0-8 from finite values (subnormals and +-1e300
among them) and zero entries, with every degree above a drawn one
zeroed.  Entries equal to +-0 are not written, so the table read back is
compared numerically (``-0.0 == 0.0``); every other value comes back bit
for bit through ``repr``.  Read back without a band limit, the table's
band is the highest degree that holds a nonzero entry (0 if none does).
"""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from sphere_poincare.vsh import CoeffSet, _valid_mask  # noqa: E402

_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
)


@st.composite
def _tables(draw):
    band = draw(st.integers(0, 8), label="band")
    mask = _valid_mask(band)
    data = np.where(mask, draw(arrays(float, mask.shape, elements=_VALUES)), 0.0)
    top = draw(st.integers(-1, band), label="highest degree kept")
    data[:, top + 1 :] = 0.0
    return CoeffSet(band, data)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_tables())
def test_csv_round_trip_gives_back_the_table(coeffs):
    nonzero = [n for n in range(coeffs.band_limit + 1) if np.any(coeffs.data[:, n] != 0.0)]
    band = max(nonzero, default=0)
    width = coeffs.band_limit - band  # the orders |j| > band sit in the outer columns
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coeffs.csv")
        coeffs.to_csv(path)
        back = CoeffSet.from_csv(path)
        full = CoeffSet.from_csv(path, band_limit=coeffs.band_limit)
    assert back.band_limit == band
    assert np.array_equal(back.data, coeffs.data[:, : band + 1, width : width + 2 * band + 1])
    assert full.band_limit == coeffs.band_limit
    assert np.array_equal(full.data, coeffs.data)
