"""Seed-batched row products against the one-seed products, bit for bit.

The seed-batched learner takes its row products with numpy's vector
gufuncs: `np.vecdot` in the regression transition, the sample loss and
the recorder's norms, and `np.vecmat` for the gradient row dl/ds . J_t
of `rtrl.forward_step`, batched or not. Each entry must hold the bits of
the product that one seed takes alone: a[r] @ b[r], dl[r] @ J[r], and
dl @ J without a seed axis.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import philox

# Signed zeros, subnormals and 1e±150, whose products reach the ends of
# the float64 range.
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e150, -1e150, 1e-150, -1e-150]
LENGTHS = st.one_of(st.integers(1, 64), st.sampled_from([1088, 4224]))
SEEDS = st.integers(1, 8)


def draw_array(data, shape, label):
    """A float64 array of shape: normal draws scaled by 2**-40..2**40, with
    a few entries (or all of them) set to SPECIALS."""
    rng = philox(data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed"))
    x = rng.normal(size=shape) * np.exp2(rng.integers(-40, 41, size=shape))
    fill = data.draw(st.one_of(st.none(), st.sampled_from(SPECIALS)), label=f"{label} fill")
    if fill is not None:
        x[...] = fill
    flat = x.reshape(-1)
    for i, value in data.draw(st.lists(st.tuples(st.integers(0, flat.size - 1), st.sampled_from(SPECIALS)),
                                       max_size=6), label=f"{label} specials"):
        flat[i] = value
    return x


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), S=SEEDS, k=LENGTHS, extra=st.one_of(st.none(), st.integers(1, 64)))
def test_vecdot_rows_are_the_one_row_products(data, S, k, extra):
    # With extra columns, b is the slice theta[:, :core_dim] that the
    # batched regression transition reads off an augmented parameter.
    a = draw_array(data, (S, k), "a")
    b = draw_array(data, (S, k + (extra or 0)), "b")[:, :k]
    want = np.array([a[r] @ b[r] for r in range(S)])
    assert same_bytes(np.vecdot(a, b), want)
    assert same_bytes(np.vecdot(b, b), np.array([b[r] @ b[r] for r in range(S)]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), S=SEEDS, n=st.integers(1, 8), k=LENGTHS)
def test_vecmat_rows_are_the_one_row_products(data, S, n, k):
    dl = draw_array(data, (S, n), "dl")
    J = draw_array(data, (S, n, k), "J")
    want = np.array([dl[r] @ J[r] for r in range(S)])
    assert same_bytes(np.vecmat(dl, J), want)


# An RNN's (n, p = n^2 + nm + n): rnn_stability.ini's n = 3, m = 2, and
# the benchmark's n = 32 and 64 with m = 1.
@pytest.mark.parametrize("n, p", [(3, 18), (32, 1088), (64, 4224)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_vecmat_without_a_seed_axis_is_the_matrix_product(n, p, data):
    dl = draw_array(data, (n,), "dl")
    J = draw_array(data, (n, p), "J")
    assert same_bytes(np.vecmat(dl, J), dl @ J)


def test_numpy_floor_has_the_vector_gufuncs():
    # np.vecdot first shipped in numpy 2.0, np.vecmat in 2.2.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    (numpy,) = [spec for spec in dependencies if re.match(r"numpy\b", spec)]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(\.\d+)?", numpy.replace(" ", ""))
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 2), numpy
