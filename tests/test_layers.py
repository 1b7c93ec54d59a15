"""Layer-level checks: binarization semantics, adjoints, float forward vs bit kernels."""
import numpy as np
import pytest

import oracles
from eebnn import arch, layers, modelio
from eebnn.layers import Mode

EVAL = Mode()
TRAIN = Mode(train=True)


def test_binarized_sign_zero_positive():
    x = np.array([-2.0, -1e-9, 0.0, 1e-9, 2.0])
    assert np.array_equal(layers.binarized(x), [-1, -1, 1, 1, 1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_binarized_sign_is_float32_with_zero_and_nan_rules(dtype):
    x = np.array([-2.0, 0.0, -0.0, np.nan, 3.0], dtype=dtype)
    b = layers.binarized(x)
    assert b.dtype == np.float32
    # both zero signs map to +1; NaN fails x >= 0 and maps to -1
    assert np.array_equal(b, [-1.0, 1.0, 1.0, -1.0, 1.0])


def test_binarized_surrogate_is_clip():
    """The finite-difference tests' stand-in for sign, `oracles.clip_binarized`."""
    x = np.array([-3.0, -0.4, 0.0, 0.7, 5.0])
    assert np.array_equal(oracles.clip_binarized(x), [-1.0, -0.4, 0.0, 0.7, 1.0])
    # float32 input (a latent weight) is clipped in float64
    x32 = x.astype(np.float32)
    b = oracles.clip_binarized(x32)
    assert b.dtype == np.float64
    assert np.array_equal(b, np.clip(x32.astype(np.float64), -1.0, 1.0))


def test_ste_mask_boundary_inclusive():
    x = np.array([-1.0000001, -1.0, -0.3, 0.0, 1.0, 1.0000001])
    assert np.array_equal(layers.ste_mask(x), [0, 1, 1, 1, 1, 0])


def test_softmax_rows_sum_to_one_and_stable():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((7, 5)) * 1e4
    p = layers.softmax(logits)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    # single-vector form works too
    p1 = layers.softmax(np.array([0.0, np.log(3.0)]))
    np.testing.assert_allclose(p1, [0.25, 0.75], atol=1e-12)


def test_avgpool2_oracle_even_and_odd():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    y = layers.avgpool2(x)
    assert y.shape == (1, 2, 2, 1)
    assert y[0, 0, 0, 0] == (0 + 1 + 4 + 5) / 4
    assert y[0, 1, 1, 0] == (10 + 11 + 14 + 15) / 4
    # odd extents zero-pad on the bottom/right
    x3 = np.ones((1, 3, 3, 2))
    y3 = layers.avgpool2(x3)
    assert y3.shape == (1, 2, 2, 2)
    assert y3[0, 0, 0, 0] == 1.0
    assert y3[0, 1, 1, 0] == 0.25  # single live cell out of four


def test_avgpool2_adjoint_identity():
    rng = np.random.default_rng(3)
    for h, w in [(4, 6), (5, 5), (7, 4)]:
        x = rng.standard_normal((2, h, w, 3))
        y = layers.avgpool2(x)
        dy = rng.standard_normal(y.shape)
        dx = layers.avgpool2_backward(dy, h, w)
        np.testing.assert_allclose(np.vdot(dy, y), np.vdot(dx, x), rtol=1e-12)


def test_conv_backward_adjoint_identity():
    rng = np.random.default_rng(9)
    for padding, stride in [("same", 1), ("same", 2), ("valid", 1)]:
        geom = layers.ConvGeometry(3, stride, padding, 4, 5)
        x = rng.standard_normal((2, 6, 7, 4))
        w = rng.standard_normal((5, 3, 3, 4))
        y = layers._conv_forward(x, w, geom, -1.0)
        y0 = layers._conv_forward(np.zeros_like(x), w, geom, -1.0)
        dy = rng.standard_normal(y.shape)
        dx = layers._conv_input_grad(dy, w, geom, x.shape)
        dw = layers._conv_weight_grad(dy, x, geom, -1.0)
        # linear-in-x part excludes the constant pad contribution
        np.testing.assert_allclose(np.vdot(dy, y - y0), np.vdot(dx, x), rtol=1e-10)
        # conv is exactly linear in w
        np.testing.assert_allclose(np.vdot(dy, y), np.vdot(dw, w), rtol=1e-10)


def test_binconv_float_and_bit_routes_match():
    rng = np.random.default_rng(17)
    for cin, cout, stride in [(3, 5, 1), (64, 7, 2), (70, 9, 1)]:
        conv = layers.BinConv2d(cin, cout, 3, stride, "same", rng)
        act = np.where(rng.standard_normal((1, 9, 8, cin)) >= 0, 1.0, -1.0)
        y_float = conv.forward(act, EVAL)[0]
        wbits = modelio.binarize(conv.latent.astype(np.float64))
        y_bits = oracles.binary_conv2d(modelio.binarize(act[0]), wbits, conv.geom)
        assert np.array_equal(y_float, y_bits)


def test_binconv_float32_matches_bit_kernel_past_toy_widths():
    # 3x3x512 = 4608 terms per output, sums far past the toy models' widths
    rng = np.random.default_rng(29)
    conv = layers.BinConv2d(512, 8, 3, 1, "same", rng)
    act = layers.binarized(rng.standard_normal((1, 5, 6, 512)))
    assert act.dtype == np.float32
    y = conv.forward(act, EVAL)
    assert y.dtype == np.float64
    y_bits = oracles.binary_conv2d(
        modelio.binarize(act[0]), modelio.binarize(conv.latent.astype(np.float64)), conv.geom
    )
    assert np.array_equal(y[0], y_bits)


class _ZeroRng:
    """Stands in for a Generator where only the latent shape matters."""

    @staticmethod
    def uniform(lo, hi, shape):
        return np.zeros(shape, dtype=np.float32)


def test_exit_head_guards_float32_exactness():
    assert layers.ExitHead(2**24, 1, _ZeroRng()).latent.shape == (1, 2**24)
    with pytest.raises(ValueError, match="float32"):
        layers.ExitHead(2**24 + 1, 1, _ZeroRng())


def test_exit_head_float_and_bit_routes_match():
    rng = np.random.default_rng(23)
    head = layers.ExitHead(66, 6, rng)
    act = np.where(rng.standard_normal((1, 4, 5, 66)) >= 0, 1.0, -1.0)
    logits = head.forward(act, EVAL)
    pooled = modelio.binarize(act[0].mean(axis=(0, 1)))
    ints = oracles.binary_dense(pooled, modelio.binarize(head.latent.astype(np.float64)))
    expected = head.scale.astype(np.float64) * ints + head.bias.astype(np.float64)
    np.testing.assert_array_equal(logits[0], expected)
    assert head.macs == 66 * 6


def _hand_built_columns(xb, k):
    """The (N·H·W, k·k·C) columns of a stride-1 "same" conv, padded with -1, by loops."""
    n, h, w, c = xb.shape
    p = k // 2
    xp = np.full((n, h + 2 * p, w + 2 * p, c), -1.0, dtype=xb.dtype)
    xp[:, p : p + h, p : p + w] = xb
    rows = [xp[s, r : r + k, q : q + k].reshape(-1) for s in range(n) for r in range(h) for q in range(w)]
    return np.array(rows)


def test_bin_conv_binarizes_its_input_with_the_straight_through_backward():
    rng = np.random.default_rng(5)
    conv = layers.BinConv2d(2, 3, 3, 1, "same", rng)
    conv.latent[0, 1, 1, 0] = 1.5  # one latent outside the clip, so the weight STE zeroes it
    x = rng.standard_normal((3, 4, 4, 2)) * 2.0
    xb = layers.binarized(x)
    np.testing.assert_array_equal(conv.forward(x, EVAL), conv.forward(xb, EVAL))

    y = conv.forward(x, TRAIN)
    dy = rng.standard_normal(y.shape)
    dx = conv.backward(dy)
    wb = layers.binarized(conv.latent)
    dx_conv = layers._conv_input_grad(dy, wb, conv.geom, x.shape)
    outside = np.abs(x) > 1.0
    assert outside.any() and (~outside).any()
    assert np.all(dx[outside] == 0.0)
    np.testing.assert_array_equal(dx[~outside], dx_conv[~outside])

    # the latent gradient: the forward's float32 ±1 columns, upcast by the GEMM
    cols = _hand_built_columns(xb, 3)
    assert cols.dtype == np.float32
    dw_eff = oracles.conv_weight_grad_reference(dy, cols, conv.latent.shape)
    mask = layers.ste_mask(conv.latent)
    assert mask[0, 1, 1, 0] == 0.0 and dw_eff[0, 1, 1, 0] != 0.0
    np.testing.assert_array_equal(conv.grads["latent"], dw_eff * mask)


@pytest.mark.parametrize("make", [
    lambda rng: (layers.RealConv2d(1, 2, 3, 2, "same", rng), (2, 5, 4, 1)),
    lambda rng: (layers.BinConv2d(2, 3, 3, 1, "same", rng), (2, 4, 4, 2)),
    lambda rng: (layers.BatchNorm(3), (2, 4, 4, 3)),
    lambda rng: (layers.ExitHead(4, 3, rng), (2, 3, 3, 4)),
])
def test_backward_frees_the_cache_and_needs_a_train_forward(make):
    rng = np.random.default_rng(31)
    layer, shape = make(rng)
    name = type(layer).__name__
    with pytest.raises(RuntimeError, match=name):
        layer.backward(np.zeros(1))
    y = layer.forward(rng.standard_normal(shape), TRAIN)
    assert layer._cache is not None
    layer.backward(rng.standard_normal(y.shape))
    assert layer._cache is None
    with pytest.raises(RuntimeError, match=name):
        layer.backward(rng.standard_normal(y.shape))


def test_batchnorm_train_normalizes_and_tracks_running_stats():
    rng = np.random.default_rng(7)
    bn = layers.BatchNorm(3)
    x = rng.standard_normal((8, 5, 5, 3)) * 4.0 + 2.0
    y = bn.forward(x, TRAIN)
    np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), 0.0, atol=1e-7)
    np.testing.assert_allclose(y.var(axis=(0, 1, 2)), 1.0, atol=1e-3)
    expected_mean = 0.1 * x.mean(axis=(0, 1, 2))
    np.testing.assert_allclose(bn.running_mean, expected_mean, rtol=1e-5)


def test_batchnorm_eval_uses_running_stats():
    bn = layers.BatchNorm(2)
    bn.running_mean[:] = [1.0, -1.0]
    bn.running_var[:] = [4.0, 0.25]
    bn.gamma[:] = [2.0, 3.0]
    bn.beta[:] = [0.5, -0.5]
    x = np.array([[[[3.0, 0.0]]]])
    y = bn.forward(x, EVAL)
    inv = 1.0 / np.sqrt(np.array([4.0, 0.25]) + bn.eps)
    expected = np.array([2.0, 3.0]) * (x[0, 0, 0] - [1.0, -1.0]) * inv + [0.5, -0.5]
    np.testing.assert_allclose(y[0, 0, 0], expected, rtol=1e-6)


def test_batchnorm_backward_matches_finite_difference():
    rng = np.random.default_rng(11)
    bn = layers.BatchNorm(2)
    x = rng.standard_normal((4, 3, 3, 2))
    r = rng.standard_normal((4, 3, 3, 2))

    def loss(xv):
        return float((layers.BatchNorm.forward(bn, xv, TRAIN) * r).sum())

    bn.forward(x, TRAIN)
    dx = bn.backward(r)
    eps = 1e-6
    idx = [(0, 0, 0, 0), (1, 2, 1, 1), (3, 0, 2, 0)]
    for i in idx:
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (loss(xp) - loss(xm)) / (2 * eps)
        np.testing.assert_allclose(dx[i], fd, rtol=1e-5, atol=1e-8)


def test_exit_head_backward_matches_finite_difference(monkeypatch):
    monkeypatch.setattr(layers, "binarized", oracles.clip_binarized)
    rng = np.random.default_rng(13)
    head = layers.ExitHead(6, 3, rng)
    act = rng.uniform(-0.8, 0.8, (2, 2, 2, 6))
    r = rng.standard_normal((2, 3))

    def loss():
        return float((head.forward(act, TRAIN) * r).sum())

    loss()
    dact = head.backward(r)
    eps = 1e-6
    # input gradient
    for i in [(0, 0, 0, 0), (1, 1, 1, 5)]:
        keep = act[i]
        act[i] = keep + eps
        lp = loss()
        act[i] = keep - eps
        lm = loss()
        act[i] = keep
        np.testing.assert_allclose(dact[i], (lp - lm) / (2 * eps), rtol=1e-4, atol=1e-9)
    # scale and bias gradients (float32 params: measure the realized step)
    for name in ("scale", "bias"):
        arr = head.params()[name]
        g = head.grads[name]
        keep = arr[0]
        arr[0] = np.float32(keep + 1e-4)
        up = float(arr[0]) - float(keep)
        lp = loss()
        arr[0] = np.float32(keep - 1e-4)
        dn = float(keep) - float(arr[0])
        lm = loss()
        arr[0] = keep
        np.testing.assert_allclose(g[0], (lp - lm) / (up + dn), rtol=1e-3)


@pytest.mark.parametrize("make,shape", [
    (lambda rng: layers.RealConv2d(2, 3, 3, 2, "same", rng), (2, 6, 6, 2)),
    (lambda rng: layers.BinConv2d(2, 3, 3, 1, "same", rng), (2, 5, 5, 2)),
    (lambda rng: layers.BatchNorm(3), (2, 4, 4, 3)),
    (lambda rng: layers.ExitHead(4, 3, rng), (2, 3, 3, 4)),
], ids=["real_conv", "bin_conv", "batchnorm", "exit_head"])
def test_backward_sets_grads_rather_than_adding(make, shape):
    """A second backward on the same input leaves the first's gradients, not twice them,
    in the same arrays, which an optimizer may hold."""
    rng = np.random.default_rng(19)
    lay = make(rng)
    x = rng.uniform(-1.5, 1.5, shape)
    dy = rng.standard_normal(lay.forward(x, TRAIN).shape)
    lay.backward(dy)
    held = dict(lay.grads)
    first = {name: g.copy() for name, g in held.items()}
    lay.forward(x, TRAIN)
    lay.backward(dy)
    assert lay.grads.keys() == lay.params().keys() == first.keys()
    for name, g in lay.grads.items():
        assert g is held[name], name
        assert np.any(g != 0.0), name
        assert np.array_equal(g, first[name]), name


def test_mode_is_frozen():
    with pytest.raises(Exception):
        EVAL.train = True


# --- the blocked, in-place training step against its one-shot references -----

# one sample per slice, the engine's budget, and several samples per slice
BLOCK_BUDGETS = (1, layers._BLOCK_BYTES, 2**20)
BATCHES = (1, 2, 5, 32)


def _toy_conv_shapes():
    """Each distinct (geometry, input H, W) of a toy_spec conv, over the four families."""
    shapes = {}
    for family in arch.FAMILIES:
        model = arch.build(arch.toy_spec(family), seed=0)
        shapes[(model.stem.geom, model.spec.input_shape[:2])] = None
        for blk, hw in zip(model.blocks, model.block_hw):
            for lay in blk.sublayers().values():
                if isinstance(lay, layers.BinConv2d):
                    shapes[(lay.geom, hw)] = None
    return list(shapes)


TOY_CONV_SHAPES = _toy_conv_shapes()


def _conv_operands(rng, geom, hw, batch, clip):
    """Input and weights as the engine passes them: float64 for the stem, else
    binarised; `clip` binarises with the finite-difference tests' float64 clip."""
    x = rng.uniform(-1.5, 1.5, (batch, *hw, geom.in_channels))
    w = rng.uniform(-1.5, 1.5, (geom.out_channels, geom.kernel, geom.kernel, geom.in_channels))
    if geom.stride == 2:  # the real-valued stem
        return x, w, 0.0
    binarize = oracles.clip_binarized if clip else layers.binarized
    return binarize(x), binarize(w), -1.0


@pytest.mark.parametrize("batch", BATCHES)
def test_conv_forward_matches_one_shot_reference(batch, monkeypatch):
    rng = np.random.default_rng(batch)
    for budget in BLOCK_BUDGETS:
        monkeypatch.setattr(layers, "_BLOCK_BYTES", budget)
        for geom, hw in TOY_CONV_SHAPES:
            # the clip's float64 columns run whole; batch 32 of them is
            # only memory, so it is checked up to batch 5
            for clip in (False, True) if batch <= 5 else (False,):
                x, w, pad = _conv_operands(rng, geom, hw, batch, clip)
                y = layers._conv_forward(x, w, geom, pad)
                assert y.dtype == np.float64
                assert np.array_equal(y, oracles.conv_forward_reference(x, w, geom, pad)), (geom, hw)


@pytest.mark.parametrize("batch", BATCHES)
def test_conv_input_grad_matches_reference(batch, monkeypatch):
    rng = np.random.default_rng(100 + batch)
    for budget in BLOCK_BUDGETS:
        monkeypatch.setattr(layers, "_BLOCK_BYTES", budget)
        for geom, hw in TOY_CONV_SHAPES:
            for clip in (False, True):
                _, w, _ = _conv_operands(rng, geom, hw, 1, clip)
                x_shape = (batch, *hw, geom.in_channels)
                dy = rng.standard_normal((batch, *geom.out_hw(*hw), geom.out_channels))
                dx = layers._conv_input_grad(dy, w, geom, x_shape)
                ref = oracles.conv_input_grad_reference(dy, w, geom, x_shape)
                assert np.array_equal(dx, ref), (geom, hw, clip)


@pytest.mark.parametrize("batch", BATCHES)
def test_conv_weight_grad_matches_whole_columns(batch):
    """Per-tap columns give the bits of one GEMM over the whole float64 columns."""
    rng = np.random.default_rng(300 + batch)
    for geom, hw in TOY_CONV_SHAPES:
        for clip in (False, True):
            x, w, pad = _conv_operands(rng, geom, hw, batch, clip)
            dy = rng.standard_normal((batch, *geom.out_hw(*hw), geom.out_channels))
            dw = layers._conv_weight_grad(dy, x, geom, pad)
            cols = layers._im2col(x, geom, pad).astype(np.float64)
            assert np.array_equal(dw, oracles.conv_weight_grad_reference(dy, cols, w.shape)), (geom, hw, clip)


@pytest.mark.parametrize("batch", BATCHES)
def test_batchnorm_train_step_matches_reference(batch):
    """Outputs, running stats, cache and gradients, for a contiguous and a sliced dy."""
    rng = np.random.default_rng(200 + batch)
    bn_shapes = {(geom.out_hw(*hw), geom.out_channels) for geom, hw in TOY_CONV_SHAPES}
    for hw, c in sorted(bn_shapes):
        bns = [layers.BatchNorm(c) for _ in range(2)]
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c)
        for bn in bns:
            bn.gamma[:], bn.beta[:] = gamma, beta
            bn.running_mean[:] = 0.25
        x = rng.standard_normal((batch, *hw, c)) * 3.0 + 1.0
        # a channel slice of a wider map, as the dense blocks pass it
        dy_wide = rng.standard_normal((batch, *hw, c + 3))
        for dy in (dy_wide[..., :c].copy(), dy_wide[..., 3:]):
            y = bns[0].forward(x, TRAIN)
            y_ref = oracles.batchnorm_forward_reference(bns[1], x, TRAIN)
            assert np.array_equal(y, y_ref), (hw, c)
            for name, buf in bns[0].buffers().items():
                assert np.array_equal(buf, bns[1].buffers()[name]), name
            (xhat, inv, axes), (xhat_ref, inv_ref, axes_ref) = bns[0]._cache, bns[1]._cache
            assert np.array_equal(xhat, xhat_ref) and np.array_equal(inv, inv_ref) and axes == axes_ref
            dx = bns[0].backward(dy)
            assert np.array_equal(dx, oracles.batchnorm_backward_reference(bns[1], dy)), (hw, c)
            for name, g in bns[0].grads.items():
                assert np.array_equal(g, bns[1].grads[name]), name
