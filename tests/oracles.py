"""XNOR/popcount kernels over packed ±1 tensors, and float references.

The kernels are the reference semantics of a binary layer. The network
itself runs the float32 forward of `eebnn.layers` on ±1 values, and the
tests hold it equal to these kernels; the kernels in turn are held equal to
`conv2d_reference` and `dense_reference`, deliberately naive float
implementations of the same contractions, free of any packing or im2col
machinery.

The last section keeps the training step's one-shot, out-of-place forms
(``conv_forward_reference`` and the rest). The engine runs them batch-blocked
and in place, and must give the same bits.

The kernels read exactly the words `eebnn.modelio` packs and a saved model
stores: bit 1 encodes +1, bit 0 encodes -1, and the pad bits of a trailing
partial word, stored as +1, are masked out, so their stored value can never
reach a result. Kernel outputs are exact integer counts stored as float32.
"Same" padding pads activations with -1.
"""

from __future__ import annotations

import numpy as np

from eebnn import arch, layers
from eebnn.layers import BatchNorm, ConvGeometry, Mode, _im2col
from eebnn.modelio import WORD_BITS, BitTensor, _word_count


def _tail_mask(n: int) -> np.uint64:
    """Mask selecting the valid bits of the final word of an n-bit row."""
    valid = n - (_word_count(n) - 1) * WORD_BITS
    if valid == WORD_BITS:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << valid) - 1)


def _mask_row(n: int) -> np.ndarray:
    """Per-word validity masks for an n-bit packed row."""
    row = np.full(_word_count(n), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    row[-1] = _tail_mask(n)
    return row


def flip_pad_bits(bt: BitTensor) -> BitTensor:
    """Test hook: invert the pad bits of the final word of every row.

    Kernels mask pad bits, so outputs must be unchanged under this
    transformation.
    """
    n = bt.shape[-1]
    words = bt.words.copy()
    words[..., -1] ^= ~_tail_mask(n)
    return BitTensor(shape=bt.shape, words=words)


def xnor_dot(a: BitTensor, b: BitTensor) -> int:
    """Dot product of two ±1 vectors via XNOR and popcount.

    Returns sum(a_i * b_i) computed as 2 * popcount(XNOR masked to the n
    valid bits) - n. The result lies in [-n, n] and has the parity of n.
    """
    if len(a.shape) != 1 or len(b.shape) != 1:
        raise ValueError("xnor_dot expects 1-D BitTensors")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    xnor = np.bitwise_not(np.bitwise_xor(a.words, b.words)) & _mask_row(n)
    matches = int(np.bitwise_count(xnor).sum())
    return 2 * matches - n


def binary_conv2d(x: BitTensor, w: BitTensor, geom: ConvGeometry) -> np.ndarray:
    """XNOR/popcount 2-D convolution of packed ±1 tensors.

    ``x`` has shape (h, w, c) and ``w`` has shape (o, k, k, c), both packed
    along c. Returns a float32 array (h', w', o) of exact integers equal to
    the float convolution of the unpacked tensors; "same" mode pads with -1.
    """
    if len(x.shape) != 3:
        raise ValueError(f"input must be (h, w, c), got {x.shape}")
    if len(w.shape) != 4 or w.shape[1] != w.shape[2]:
        raise ValueError(f"weights must be (o, k, k, c), got {w.shape}")
    h, wdt, c = x.shape
    o, k, _, cw = w.shape
    if c != geom.in_channels or cw != c:
        raise ValueError(f"channel mismatch: input {c}, weights {cw}, geometry {geom.in_channels}")
    if o != geom.out_channels or k != geom.kernel:
        raise ValueError("weight shape disagrees with geometry")

    pt, pb, pl, pr = geom.pad_amounts(h, wdt)
    oh, ow = geom.out_hw(h, wdt)
    nw = _word_count(c)

    # All-zero words encode -1 in every bit, which is exactly the "same"-mode
    # padding value; bits beyond c are masked below.
    canvas = np.zeros((h + pt + pb, wdt + pl + pr, nw), dtype=np.uint64)
    canvas[pt : pt + h, pl : pl + wdt] = x.words

    win = np.lib.stride_tricks.sliding_window_view(canvas, (k, k), axis=(0, 1))
    win = win[:: geom.stride, :: geom.stride]  # (oh, ow, nw, k, k)
    cols = np.ascontiguousarray(win.transpose(0, 1, 3, 4, 2)).reshape(oh * ow, k * k * nw)

    wmat = w.words.reshape(o, k * k * nw)
    mask = np.tile(_mask_row(c), k * k)
    total_bits = k * k * c

    out = np.empty((oh * ow, o), dtype=np.int64)
    for j in range(o):
        xnor = np.bitwise_not(np.bitwise_xor(cols, wmat[j])) & mask
        out[:, j] = np.bitwise_count(xnor).sum(axis=1, dtype=np.int64)
    return (2 * out - total_bits).astype(np.float32).reshape(oh, ow, o)


def binary_dense(x: BitTensor, w: BitTensor) -> np.ndarray:
    """XNOR/popcount matvec: ±1 vector of n features against (u, n) weights.

    Returns a float32 vector of u exact integer dot products.
    """
    if len(x.shape) != 1:
        raise ValueError(f"input must be a vector, got shape {x.shape}")
    if len(w.shape) != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"weight shape {w.shape} does not match input length {x.shape[0]}")
    n = x.shape[0]
    xnor = np.bitwise_not(np.bitwise_xor(w.words, x.words[None, :])) & _mask_row(n)[None, :]
    matches = np.bitwise_count(xnor).sum(axis=1, dtype=np.int64)
    return (2 * matches - n).astype(np.float32)


# --- naive float oracle ----------------------------------------------------


def conv2d_reference(x: np.ndarray, w: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Naive float 2-D convolution of ±1 arrays, one window sum at a time.

    Same layouts as binary_conv2d: x (h, w, c), w (o, k, k, c); "same"
    padding uses -1.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    h, wdt, _ = x.shape
    o, k = w.shape[0], w.shape[1]
    pt, pb, pl, pr = geom.pad_amounts(h, wdt)
    oh, ow = geom.out_hw(h, wdt)
    canvas = np.full((h + pt + pb, wdt + pl + pr, x.shape[2]), -1.0)
    canvas[pt : pt + h, pl : pl + wdt] = x
    out = np.empty((oh, ow, o))
    for i in range(oh):
        for j in range(ow):
            window = canvas[i * geom.stride : i * geom.stride + k, j * geom.stride : j * geom.stride + k]
            for u in range(o):
                out[i, j, u] = np.sum(window * w[u])
    return out


def dense_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Naive float matvec of a ±1 vector against (u, n) ±1 weights."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return np.array([np.sum(x * w[u]) for u in range(w.shape[0])])


# --- a differentiable stand-in for sign --------------------------------------


def clip_binarized(x: np.ndarray) -> np.ndarray:
    """The float64 clipped identity, patched over `eebnn.layers.binarized`.

    With it every binary layer becomes an ordinary differentiable function
    whose backward is the engine's own straight-through code, so finite
    differences can check the chain rule end to end.
    """
    return np.clip(x, -1.0, 1.0, dtype=np.float64)


# --- the training step, one-shot and out of place ---------------------------
#
# Each is a copy of an engine routine before it was made batch-blocked or in
# place, or, for the weight gradient and the last three, before a binary conv
# cached its ±1 input and built its weight-gradient columns one tap at a time
# (their one edit: the float64 columns are cast after the gather, as
# `_im2col` no longer takes a dtype). `tests/test_layers.py` holds the engine
# bit-identical to them layer by layer, and `tests/test_training_identity.py`
# trains with them patched in.


def conv_forward_reference(x, w, geom: ConvGeometry, pad_value: float):
    """im2col convolution; x (N,H,W,C), w (O,k,k,C); returns float64 y.

    im2col and the GEMM run in x's dtype: float32 for sign-mode ±1 input,
    where every sum is an exact integer, float64 otherwise.
    """
    n, h, wd, _ = x.shape
    oh, ow = geom.out_hw(h, wd)
    o = w.shape[0]
    y = _im2col(x, geom, pad_value) @ w.reshape(o, -1).T
    return y.astype(np.float64, copy=False).reshape(n, oh, ow, o)


def conv_weight_grad_reference(dy, cols, w_shape):
    """dL/dw (O,k,k,C) from the output gradient and the im2col columns of the input."""
    o = w_shape[0]
    return (dy.reshape(-1, o).T @ cols).reshape(w_shape)


def conv_input_grad_reference(dy, w, geom: ConvGeometry, x_shape):
    """dL/dx (N,H,W,C) from the output gradient and the weights (O,k,k,C)."""
    n, h, wd, c = x_shape
    o, k, stride = w.shape[0], geom.kernel, geom.stride
    pt, _, pl, _ = geom.pad_amounts(h, wd)
    oh, ow = geom.out_hw(h, wd)
    dyf = dy.reshape(n * oh * ow, o)
    wmat = w.reshape(o, k * k * c)
    # reconstruct padded size directly from the window arithmetic
    hp = max((oh - 1) * stride + k, h + pt)
    wp = max((ow - 1) * stride + k, wd + pl)
    dxp = np.zeros((n, hp, wp, c))
    # the column gradient one kernel tap at a time, so each scatter-add reads
    # a contiguous (N, oh, ow, C) block instead of a C-wide strided slice
    for i in range(k):
        for j in range(k):
            t = (i * k + j) * c
            dtap = (dyf @ wmat[:, t : t + c]).reshape(n, oh, ow, c)
            dxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += dtap
    return dxp[:, pt : pt + h, pl : pl + wd, :]


def batchnorm_forward_reference(self: BatchNorm, x, mode: Mode):
    """`BatchNorm.forward`: a method, so it can stand in for the engine's."""
    if mode.train:
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv
        self.running_mean = ((1 - self.momentum) * self.running_mean + self.momentum * mean).astype(np.float32)
        self.running_var = ((1 - self.momentum) * self.running_var + self.momentum * var).astype(np.float32)
        self._cache = (xhat, inv, axes)
        return self.gamma.astype(np.float64) * xhat + self.beta.astype(np.float64)
    y = x - self.running_mean.astype(np.float64)
    y *= 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
    y *= self.gamma.astype(np.float64)
    y += self.beta.astype(np.float64)
    return y


def batchnorm_backward_reference(self: BatchNorm, dy):
    """`BatchNorm.backward`: a method, so it can stand in for the engine's."""
    xhat, inv, axes = self._take_cache()
    self.grads["gamma"][...] = (dy * xhat).sum(axis=axes)
    self.grads["beta"][...] = dy.sum(axis=axes)
    m = np.prod([xhat.shape[a] for a in axes])
    dxhat = dy * self.gamma.astype(np.float64)
    return (inv / m) * (m * dxhat - dxhat.sum(axis=axes) - xhat * (dxhat * xhat).sum(axis=axes))


def binconv_forward_reference(self: layers.BinConv2d, x, mode: Mode):
    """`BinConv2d.forward` caching its float64 input: a method, so it can stand in for the engine's."""
    if mode.train:
        self._cache = x
    xb, wb = layers.binarized(x), layers.binarized(self.latent)
    return layers._conv_forward(xb, wb, self.geom, -1.0)


def binconv_backward_reference(self: layers.BinConv2d, dy):
    """`BinConv2d.backward` on whole float64 im2col columns of the re-binarised input."""
    x = self._take_cache()
    # rebuilt in float64: the values the forward's columns upcast to, so the
    # weight gradient is the same GEMM on the same operands
    cols = _im2col(layers.binarized(x), self.geom, -1.0).astype(np.float64)
    dw_eff = conv_weight_grad_reference(dy, cols, self.latent.shape)
    del cols  # released before the input gradient allocates its own
    self.grads["latent"][...] = dw_eff * layers.ste_mask(self.latent)
    dx = layers._conv_input_grad(dy, layers.binarized(self.latent), self.geom, x.shape)
    dx *= layers.ste_mask(x)
    return dx


def melius_forward_reference(self: arch.MeliusBlock, x, mode: Mode):
    """`MeliusBlock.forward` with its copy, for a conv2 that caches the map it reads."""
    y = arch.DenseBlock.forward(self, x, mode)
    out = y.copy()  # conv2 keeps y in its training cache
    out[..., self.in_channels:] += self.bn2.forward(self.conv2.forward(y, mode), mode)
    return out
