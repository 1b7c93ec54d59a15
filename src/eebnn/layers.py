"""Layer primitives: one forward serves training and inference.

In train mode each layer caches its input-side state until its backward,
which frees it; so instances are single-writer while training, and a
backward without a train-mode forward before it raises. Convolutions cache
no im2col columns. A binary conv caches what its backward reads: the ±1
input its forward already built (float32) and the straight-through mask
(bool), 5 bytes an element against the 8 of its float64 input; the stem
caches its input. Eval mode writes no cache: inference is a plain function
of the input and the current parameters. Parameters are stored as float32;
real-valued activations and gradients are float64.

Binary layers compute on ±1 values held as float32, not with XNOR/popcount
over packed bits. A dot product of k·k·C ±1 values is an integer of
magnitude at most k·k·C, and float32 represents every such integer and
partial sum exactly while k·k·C <= 2**24 (`FLOAT32_EXACT_TERMS`), which
`ConvGeometry` and `ExitHead` enforce. So the float32 GEMM equals the
popcount result whatever its summation order, and in numpy it is also the
faster of the two. Its result is cast to float64 before batch-norm, so
everything downstream sees the same numbers as a float64 GEMM would give.
Packed bits are the storage format of `modelio`; the tests hold this
forward equal to XNOR/popcount kernels over them.

A training step touches each large map as few times as it can, and the
conv loops run in batch slices whose working set fits `_BLOCK_BYTES`
(256 KiB, a core's L2 cache) or, for a binary conv's weight gradient, one
kernel tap at a time. None of it changes a bit:

* the float32 forward of a binary conv runs im2col and its GEMM per slice;
  its sums are exact integers, so any split of the rows gives the same y.
  Batch 1 is a single slice. The stem's float64 input runs in one GEMM;
* the input gradient runs its nine per-tap GEMMs per slice; each sample's
  rows meet the same weights and are added over the taps in the same order
  (this leans on BLAS computing a row the same way in any row count, which
  the tests check on the host they run on);
* batch-norm centres its input once, takes the variance from that map
  with `np.var`'s own steps, and normalises and back-propagates in place,
  in the original order of operations;
* the weight gradient of a binary conv builds its float64 columns one
  kernel tap at a time, 1/(k·k) of their whole size, and still reduces
  each sum over all rows in one GEMM; only the GEMM's column count changes
  (this leans on BLAS running the same kernel for either count, which
  `_conv_weight_grad` arranges and the tests check).

`tests/oracles.py` keeps the one-shot, out-of-place forms, with whole
weight-gradient columns, and the tests hold the engine bit-identical to
them.

Each binary layer (`BinConv2d`, `ExitHead`) binarises its own input and
its own latent weights with sign, to float32 ±1, in training and inference
alike; its backward applies the straight-through rule to input and weights:
gradients pass where the pre-binarisation value lies in [-1, 1] and are
zeroed outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mode:
    train: bool = False


def binarized(x: np.ndarray) -> np.ndarray:
    """Sign as float32 ±1 (0 and -0.0 map to +1, NaN to -1)."""
    b = (x >= 0).astype(np.float32)
    b *= 2
    b -= 1
    return b


def ste_mask(x: np.ndarray) -> np.ndarray:
    """Where the straight-through rule passes gradient, |x| <= 1, as bool."""
    return np.abs(x) <= 1.0


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (also accepts a single logit vector)."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# float32 holds every integer up to 2**24 exactly, so a sum of at most this
# many ±1 terms is exact in float32 whatever the order of its additions.
FLOAT32_EXACT_TERMS = 2**24


@dataclass(frozen=True)
class ConvGeometry:
    """Shape bookkeeping for a 2-D convolution."""

    kernel: int
    stride: int
    padding: str  # "same" or "valid"
    in_channels: int
    out_channels: int

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding mode {self.padding!r}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.kernel * self.kernel * self.in_channels > FLOAT32_EXACT_TERMS:
            raise ValueError(
                f"kernel {self.kernel}x{self.kernel} over {self.in_channels} channels sums "
                f"{self.kernel * self.kernel * self.in_channels} ±1 terms, more than the "
                f"{FLOAT32_EXACT_TERMS} that float32 adds exactly"
            )

    def pad_amounts(self, h: int, w: int) -> tuple[int, int, int, int]:
        """(top, bottom, left, right) explicit padding for the input size."""
        if self.padding == "valid":
            return (0, 0, 0, 0)
        oh, ow = self.out_hw(h, w)
        ph = max((oh - 1) * self.stride + self.kernel - h, 0)
        pw = max((ow - 1) * self.stride + self.kernel - w, 0)
        return (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        if self.padding == "same":
            oh = -(-h // self.stride)
            ow = -(-w // self.stride)
        else:
            oh = (h - self.kernel) // self.stride + 1
            ow = (w - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(
                f"invalid geometry: kernel {self.kernel} stride {self.stride} "
                f"on {h}x{w} input yields empty output"
            )
        return oh, ow

    def macs(self, h: int, w: int) -> int:
        oh, ow = self.out_hw(h, w)
        return oh * ow * self.kernel * self.kernel * self.in_channels * self.out_channels


# --- conv helpers ------------------------------------------------------------

# Working-set bytes of one batch slice in the blocked conv loops: the
# per-slice columns of `_conv_forward` and the padded gradient map of
# `_conv_input_grad` stay in a core's L2 cache.
_BLOCK_BYTES = 256 * 2**10


def _block_samples(bytes_per_sample: int) -> int:
    """Samples per batch slice: as many as fit `_BLOCK_BYTES`, at least one."""
    return max(1, _BLOCK_BYTES // bytes_per_sample)


def _padded(x, geom: ConvGeometry, pad_value: float):
    """x (N,H,W,C) padded with pad_value for the geometry, in x's dtype (x itself if unpadded)."""
    n, h, wd, c = x.shape
    pt, pb, pl, pr = geom.pad_amounts(h, wd)
    if not (pt or pb or pl or pr):
        return x
    xp = np.full((n, h + pt + pb, wd + pl + pr, c), pad_value, dtype=x.dtype)
    xp[:, pt : pt + h, pl : pl + wd] = x
    return xp


def _im2col(x, geom: ConvGeometry, pad_value: float):
    """Columns (N·oh·ow, k·k·C) of x (N,H,W,C), padded with pad_value."""
    n, h, wd, c = x.shape
    k = geom.kernel
    oh, ow = geom.out_hw(h, wd)
    win = np.lib.stride_tricks.sliding_window_view(_padded(x, geom, pad_value), (k, k), axis=(1, 2))
    win = win[:, :: geom.stride, :: geom.stride]  # (N, oh, ow, C, k, k)
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(n * oh * ow, k * k * c)


def _conv_forward(x, w, geom: ConvGeometry, pad_value: float):
    """im2col convolution; x (N,H,W,C), w (O,k,k,C); returns float64 y.

    im2col and the GEMM run in x's dtype: float32 for binarised ±1 input,
    where every sum is an exact integer, and float64 for the real-valued
    stem, its only float64 caller. Exact sums do not depend on how the rows
    are split, so float32 input runs in batch slices whose columns fit
    `_BLOCK_BYTES` (one slice at batch 1); float64 input runs in one GEMM,
    whose sums keep their one-shot order.
    """
    n, h, wd, c = x.shape
    oh, ow = geom.out_hw(h, wd)
    o = w.shape[0]
    wt = w.reshape(o, -1).T
    if x.dtype != np.float32:
        return (_im2col(x, geom, pad_value) @ wt).reshape(n, oh, ow, o)
    step = _block_samples(oh * ow * geom.kernel**2 * c * x.itemsize)
    y = np.empty((n, oh, ow, o))
    for lo in range(0, n, step):
        y[lo : lo + step] = (_im2col(x[lo : lo + step], geom, pad_value) @ wt).reshape(-1, oh, ow, o)
    return y


# OpenBLAS runs a GEMM of at most 100**3 multiply-adds in its small-matrix
# kernels, which sum in another order than its blocked kernels do.
_SMALL_GEMM_MACS = 100**3


def _conv_weight_grad(dy, x, geom: ConvGeometry, pad_value: float):
    """dL/dw (O,k,k,C) from the output gradient and the input x (N,H,W,C).

    One GEMM per kernel tap reduces over all N·oh·ow rows, as one GEMM over
    the whole float64 im2col columns would; each tap's (N·oh·ow, C) window
    is copied, in float64, into one buffer that every tap reuses. Only the
    GEMM's column count changes, which keeps each sum's order where BLAS
    runs the same kernel for C columns as for k·k·C (the tests check it).
    Whole columns stay where it would not: C = 1, a matrix-vector product
    (gemv), and a tap GEMM small enough for the small-matrix kernels.
    """
    n, h, wd, c = x.shape
    o, k, s = dy.shape[-1], geom.kernel, geom.stride
    dyt = dy.reshape(-1, o).T
    if c == 1 or dyt.size * c <= _SMALL_GEMM_MACS:
        return (dyt @ _im2col(x, geom, pad_value)).reshape(o, k, k, c)
    oh, ow = geom.out_hw(h, wd)
    xp = _padded(x, geom, pad_value)
    tap = np.empty((n, oh, ow, c))
    dw = np.empty((o, k, k, c))
    for i in range(k):
        for j in range(k):
            tap[...] = xp[:, i : i + oh * s : s, j : j + ow * s : s]
            dw[:, i, j, :] = dyt @ tap.reshape(-1, c)
    return dw


def _conv_input_grad(dy, w, geom: ConvGeometry, x_shape):
    """dL/dx (N,H,W,C) from the output gradient and the weights (O,k,k,C).

    Runs in batch slices whose padded gradient map fits `_BLOCK_BYTES`, so
    the nine scatter-adds of a slice hit cache. A sample's rows are the same
    GEMM rows against the same weights in any slice, and each sample's map
    is summed over the taps in the same order, so slicing changes no bit
    where BLAS computes a row alike in any row count (the tests check it).
    Returns a view into the padded map.
    """
    n, h, wd, c = x_shape
    o, k, stride = w.shape[0], geom.kernel, geom.stride
    pt, _, pl, _ = geom.pad_amounts(h, wd)
    oh, ow = geom.out_hw(h, wd)
    wmat = w.reshape(o, k * k * c)
    # reconstruct padded size directly from the window arithmetic
    hp = max((oh - 1) * stride + k, h + pt)
    wp = max((ow - 1) * stride + k, wd + pl)
    dxp = np.zeros((n, hp, wp, c))
    step = _block_samples(dxp[0].nbytes)
    for lo in range(0, n, step):
        dyf = dy[lo : lo + step].reshape(-1, o)
        dxb = dxp[lo : lo + step]
        # the column gradient one kernel tap at a time, so each scatter-add
        # reads a contiguous (n, oh, ow, C) block instead of a C-wide strided slice
        for i in range(k):
            for j in range(k):
                t = (i * k + j) * c
                dtap = (dyf @ wmat[:, t : t + c]).reshape(-1, oh, ow, c)
                dxb[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += dtap
    return dxp[:, pt : pt + h, pl : pl + wd, :]


def avgpool2(x):
    """2x2 average pooling with stride 2 on the (..., H, W, C) axes.

    Odd extents are zero-padded to even before pooling, matching the
    ceil(n/2) output size of a stride-2 "same" convolution.
    """
    h, wd = x.shape[-3], x.shape[-2]
    if h % 2 or wd % 2:
        xp = np.zeros(x.shape[:-3] + (h + h % 2, wd + wd % 2, x.shape[-1]), dtype=x.dtype)
        xp[..., :h, :wd, :] = x
        x = xp
    return 0.25 * (
        x[..., 0::2, 0::2, :] + x[..., 1::2, 0::2, :] + x[..., 0::2, 1::2, :] + x[..., 1::2, 1::2, :]
    )


def avgpool2_backward(dy, h, wd):
    """Backward of avgpool2 for an original (..., h, wd, C) input."""
    up = np.repeat(np.repeat(dy, 2, axis=-3), 2, axis=-2) * 0.25
    return up[..., :h, :wd, :]


# --- layers ------------------------------------------------------------------


class Layer:
    """Base: parameter dict plus accumulated float64 gradients."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def binary_param_names(self) -> set[str]:
        return set()

    def __init__(self):
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def _take_cache(self):
        """What the last train-mode forward cached, released as backward reads it."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a train-mode forward first")
        return cache

    def zero_grads(self):
        self.grads = {name: np.zeros(p.shape) for name, p in self.params().items()}

    def _accumulate(self, name, g):
        if name not in self.grads:
            self.grads[name] = np.zeros(self.params()[name].shape)
        self.grads[name] += g


class RealConv2d(Layer):
    """Float-weight convolution (used for the stem). No bias; BN follows.

    Its input is the network input, so backward computes the weight
    gradient only, on whole im2col columns: with one input channel a
    tap's product would be a matrix-vector one, which BLAS sends to gemv
    and sums in another order than the whole-column GEMM. Its columns are
    small (k·k values a pixel).
    """

    def __init__(self, in_channels, out_channels, kernel, stride, padding, rng):
        super().__init__()
        self.geom = ConvGeometry(kernel, stride, padding, in_channels, out_channels)
        fan_in = kernel * kernel * in_channels
        self.w = (rng.standard_normal((out_channels, kernel, kernel, in_channels)) * np.sqrt(2.0 / fan_in)).astype(
            np.float32
        )

    def params(self):
        return {"w": self.w}

    def forward(self, x, mode: Mode):
        if mode.train:
            self._cache = x
        return _conv_forward(x, self.w.astype(np.float64), self.geom, 0.0)

    def backward(self, dy) -> None:
        x = self._take_cache()
        self._accumulate("w", _conv_weight_grad(dy, x, self.geom, 0.0))


class BinConv2d(Layer):
    """Binary convolution: binarises its input and its weights, then convolves.

    The latent float weights are what the optimizer sees; the effective
    weights are their sign, and so is the effective input. "Same" padding
    uses -1, the encoding of an absent ±1 signal. The backward applies the
    straight-through rule to both; a train-mode forward caches the ±1 input
    and the input's mask for it, not the input.
    """

    def __init__(self, in_channels, out_channels, kernel, stride, padding, rng):
        super().__init__()
        self.geom = ConvGeometry(kernel, stride, padding, in_channels, out_channels)
        self.latent = rng.uniform(-0.9, 0.9, (out_channels, kernel, kernel, in_channels)).astype(np.float32)

    def params(self):
        return {"latent": self.latent}

    def binary_param_names(self):
        return {"latent"}

    def forward(self, x, mode: Mode):
        xb, wb = binarized(x), binarized(self.latent)
        if mode.train:
            self._cache = (xb, ste_mask(x))
        return _conv_forward(xb, wb, self.geom, -1.0)

    def backward(self, dy):
        xb, mask = self._take_cache()
        dw_eff = _conv_weight_grad(dy, xb, self.geom, -1.0)
        self._accumulate("latent", dw_eff * ste_mask(self.latent))
        del xb  # released before the input gradient allocates its own
        dx = _conv_input_grad(dy, binarized(self.latent), self.geom, mask.shape)
        dx *= mask
        return dx


class BatchNorm(Layer):
    """Per-channel batch normalisation over the (N, H, W) axes."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels):
        super().__init__()
        self.gamma = np.ones(channels, dtype=np.float32)
        self.beta = np.zeros(channels, dtype=np.float32)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, mode: Mode):
        if mode.train:
            axes = tuple(range(x.ndim - 1))
            mean = x.mean(axis=axes)
            xhat = x - mean
            # np.var's own steps: the summed squares of x - mean over the count
            var = (xhat * xhat).sum(axis=axes) / (x.size // x.shape[-1])
            inv = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv
            self.running_mean = ((1 - self.momentum) * self.running_mean + self.momentum * mean).astype(np.float32)
            self.running_var = ((1 - self.momentum) * self.running_var + self.momentum * var).astype(np.float32)
            self._cache = (xhat, inv, axes)
            y = xhat * self.gamma.astype(np.float64)
            y += self.beta.astype(np.float64)
            return y
        y = x - self.running_mean.astype(np.float64)
        y *= 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
        y *= self.gamma.astype(np.float64)
        y += self.beta.astype(np.float64)
        return y

    def backward(self, dy):
        xhat, inv, axes = self._take_cache()
        prod = dy * xhat
        self._accumulate("gamma", prod.sum(axis=axes))
        self._accumulate("beta", dy.sum(axis=axes))
        m = np.prod([xhat.shape[a] for a in axes])
        dxhat = dy * self.gamma.astype(np.float64)
        s1 = dxhat.sum(axis=axes)
        s2 = np.multiply(dxhat, xhat, out=prod).sum(axis=axes)
        # (inv / m) * (m * dxhat - s1 - xhat * s2), one operation at a time
        # in that order, built in dxhat; the cache is ours to overwrite
        xhat *= s2
        dxhat *= m
        dxhat -= s1
        dxhat -= xhat
        dxhat *= inv / m
        return dxhat


class ExitHead(Layer):
    """Classifier head: global average pool, binarize, binary dense, affine.

    The integer dot products from the binary dense layer pass through a
    learned per-class scale and bias before softmax, which gives the head
    real-valued expressivity despite its ±1 weights.
    """

    def __init__(self, n_features, n_classes, rng):
        super().__init__()
        if n_features > FLOAT32_EXACT_TERMS:
            raise ValueError(
                f"{n_features} features exceed the {FLOAT32_EXACT_TERMS} ±1 terms "
                "that float32 adds exactly"
            )
        self.n_features = n_features
        self.n_classes = n_classes
        self.latent = rng.uniform(-0.9, 0.9, (n_classes, n_features)).astype(np.float32)
        self.scale = np.full(n_classes, 1.0 / np.sqrt(n_features), dtype=np.float32)
        self.bias = np.zeros(n_classes, dtype=np.float32)

    def params(self):
        return {"latent": self.latent, "scale": self.scale, "bias": self.bias}

    def binary_param_names(self):
        return {"latent"}

    @property
    def macs(self) -> int:
        return self.n_features * self.n_classes

    def forward(self, act, mode: Mode):
        """act is (N, H, W, C); returns logits (N, n_classes)."""
        hw = act.shape[1:3]
        pooled = act.mean(axis=(1, 2))
        xb = binarized(pooled)
        wb = binarized(self.latent)
        ints = (xb @ wb.T).astype(np.float64, copy=False)
        logits = self.scale.astype(np.float64) * ints + self.bias.astype(np.float64)
        if mode.train:
            self._cache = (hw, pooled, xb, wb, ints)
        return logits

    def backward(self, dlogits):
        hw, pooled, xb, wb, ints = self._take_cache()
        self._accumulate("scale", (dlogits * ints).sum(axis=0))
        self._accumulate("bias", dlogits.sum(axis=0))
        dints = dlogits * self.scale.astype(np.float64)
        self._accumulate("latent", (dints.T @ xb) * ste_mask(self.latent))
        dxb = dints @ wb
        dpooled = dxb * ste_mask(pooled)
        h, w = hw
        n = dpooled.shape[0]
        return np.broadcast_to(dpooled[:, None, None, :] / (h * w), (n, h, w, dpooled.shape[1])).copy()
