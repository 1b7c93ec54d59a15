"""The packed sign-bit format of `modelio`, the sign rule it shares with
`layers` and Bop, `layers.ConvGeometry`, and the XNOR/popcount oracles of
`oracles` against their naive references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eebnn import layers, modelio, training


def test_word_count_and_tail_mask():
    assert modelio._word_count(1) == 1
    assert modelio._word_count(64) == 1
    assert modelio._word_count(65) == 2
    assert oracles._tail_mask(64) == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert oracles._tail_mask(1) == np.uint64(1)


def test_binarize_roundtrip_sign_zero_positive():
    x = np.array([[0.5, -0.25, 0.0, -0.0, 2.0]])
    bt = modelio.binarize(x)
    out = modelio.unpack(bt)
    # sign(0) = +1 applies to both zero signs
    assert np.array_equal(out, [[1.0, -1.0, 1.0, 1.0, 1.0]])


def test_binarize_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        modelio.binarize(np.array([1.0, np.nan]))


class _BinaryParamOnly:
    """The one thing `training.Optimizer` reads of a model: its named parameters."""

    def __init__(self, arr):
        self.arr = arr

    def named_params(self):
        yield "w", None, "w", self.arr, True


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sign_rule_agrees_across_its_users(dtype):
    # layers.binarized, modelio's packed bits and Bop's snap to ±1 share sign(0) = +1
    t = np.array([0.0, -0.0, 1e-30, -1e-30, 0.5, -0.5, 1.0, -1.0], dtype=dtype)
    expected = np.array([1, 1, 1, -1, 1, -1, 1, -1], dtype=np.float32)
    assert np.array_equal(layers.binarized(t), expected)
    assert np.array_equal(modelio.unpack(modelio.binarize(t)), expected)
    snapped = _BinaryParamOnly(t.copy())
    training.Optimizer(snapped, training.TrainConfig(optimizer="bop"))
    assert np.array_equal(snapped.arr, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binarize_rejects_non_finite_naming_the_index(dtype, bad):
    t = np.zeros((2, 3), dtype=dtype)
    t[1, 2] = bad
    with pytest.raises(ValueError, match=r"non-finite value .* at index \(1, 2\)"):
        modelio.binarize(t)


@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_xnor_dot_matches_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n)
    b = rng.choice([-1.0, 1.0], n)
    got = oracles.xnor_dot(modelio.binarize(a), modelio.binarize(b))
    assert got == int(np.dot(a, b))


@given(st.integers(1, 130), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pad_bits_never_leak(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n)
    b = rng.choice([-1.0, 1.0], n)
    ab, bb = modelio.binarize(a), modelio.binarize(b)
    base = oracles.xnor_dot(ab, bb)
    assert oracles.xnor_dot(oracles.flip_pad_bits(ab), bb) == base
    assert oracles.xnor_dot(ab, oracles.flip_pad_bits(bb)) == base


def test_conv_geometry_same_padding_and_macs():
    g = layers.ConvGeometry(3, 1, "same", 8, 16)
    assert g.out_hw(10, 7) == (10, 7)
    assert g.macs(10, 7) == 10 * 7 * 9 * 8 * 16
    g2 = layers.ConvGeometry(3, 2, "same", 8, 16)
    assert g2.out_hw(98, 64) == (49, 32)
    gv = layers.ConvGeometry(3, 1, "valid", 4, 4)
    assert gv.out_hw(5, 5) == (3, 3)
    with pytest.raises(ValueError, match="geometry"):
        gv.out_hw(2, 2)


def test_conv_geometry_guards_float32_exactness():
    # 4 * 4 * 2**20 = 2**24 ±1 terms still sum exactly in float32; one more does not
    g = layers.ConvGeometry(4, 1, "same", 2**20, 1)
    assert g.kernel * g.kernel * g.in_channels == layers.FLOAT32_EXACT_TERMS == 2**24
    assert layers.ConvGeometry(1, 1, "valid", 2**24, 1).in_channels == 2**24
    with pytest.raises(ValueError, match="float32"):
        layers.ConvGeometry(4, 1, "same", 2**20 + 1, 1)
    with pytest.raises(ValueError, match="float32"):
        layers.ConvGeometry(1, 1, "valid", 2**24 + 1, 1)


@pytest.mark.parametrize("cin", [3, 64, 65, 100])
def test_binary_conv2d_matches_reference(cin, rng):
    x = rng.choice([-1.0, 1.0], (7, 6, cin))
    w = rng.choice([-1.0, 1.0], (5, 3, 3, cin))
    geom = layers.ConvGeometry(3, 1, "same", cin, 5)
    got = oracles.binary_conv2d(modelio.binarize(x), modelio.binarize(w), geom)
    want = oracles.conv2d_reference(x, w, geom)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)


def test_binary_conv2d_stride_and_valid(rng):
    x = rng.choice([-1.0, 1.0], (9, 8, 10))
    w = rng.choice([-1.0, 1.0], (4, 3, 3, 10))
    for stride, padding in [(2, "same"), (1, "valid"), (2, "valid")]:
        geom = layers.ConvGeometry(3, stride, padding, 10, 4)
        got = oracles.binary_conv2d(modelio.binarize(x), modelio.binarize(w), geom)
        assert np.array_equal(got, oracles.conv2d_reference(x, w, geom))


def test_binary_dense_matches_reference(rng):
    for n in (1, 63, 64, 65, 200):
        x = rng.choice([-1.0, 1.0], n)
        w = rng.choice([-1.0, 1.0], (7, n))
        got = oracles.binary_dense(modelio.binarize(x), modelio.binarize(w))
        assert np.array_equal(got, oracles.dense_reference(x, w))


def test_conv_pad_bit_isolation(rng):
    x = rng.choice([-1.0, 1.0], (5, 5, 33))
    w = rng.choice([-1.0, 1.0], (2, 3, 3, 33))
    geom = layers.ConvGeometry(3, 1, "same", 33, 2)
    base = oracles.binary_conv2d(modelio.binarize(x), modelio.binarize(w), geom)
    flipped = oracles.binary_conv2d(oracles.flip_pad_bits(modelio.binarize(x)),
                                   oracles.flip_pad_bits(modelio.binarize(w)), geom)
    assert np.array_equal(base, flipped)


def test_output_parity_bound():
    # sum of n terms of +-1 has the parity of n and |sum| <= n
    rng = np.random.default_rng(0)
    n = 3 * 3 * 5
    x = rng.choice([-1.0, 1.0], (4, 4, 5))
    w = rng.choice([-1.0, 1.0], (3, 3, 3, 5))
    geom = layers.ConvGeometry(3, 1, "same", 5, 3)
    out = oracles.binary_conv2d(modelio.binarize(x), modelio.binarize(w), geom)
    assert np.all(np.abs(out) <= n)
    assert np.all((out - n) % 2 == 0)


def test_packed_sizes():
    assert modelio.parameter_bits((4, 3, 3, 64)) == 4 * 9 * 64
    bt = modelio.binarize(np.ones((4, 3, 3, 64)))
    assert bt.words.nbytes == 4 * 9 * 8  # one word per 64 channels
