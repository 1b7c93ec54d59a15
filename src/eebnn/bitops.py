"""Bit-packed ±1 tensors and XNOR/popcount kernels over them.

Packing is the storage format of binary weights in a saved model (one bit
per weight). The kernels are the reference semantics of a binary layer:
the network itself runs the float32 forward of `layers` on ±1 values, which
is exact while a contraction sums at most 2**24 terms (`ConvGeometry`
refuses wider ones) and faster in numpy, and the tests hold it equal to
these kernels. The result is cast to float64 before batch-norm.

Values are packed along the innermost axis into 64-bit words, with bit 1
encoding +1 and bit 0 encoding -1. Pad bits in a trailing partial word are
stored as +1, but every kernel masks them out, so their stored value can
never reach a result.

Layout conventions used throughout the package (the contraction axis is
always the packed, innermost axis):

* activations: ``(height, width, channels)``, packed along channels
* conv weights: ``(out_channels, k, k, in_channels)``, packed along input
  channels
* dense weights: ``(units, features)``, packed along features

Kernel outputs are exact integer counts stored as float32. "Same" padding
pads activations with -1.

The ``*_reference`` functions are deliberately naive float implementations
of the same contractions, kept free of any packing or im2col machinery so
they can serve as an independent oracle for the bit kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORD_BITS = 64

# float32 holds every integer up to 2**24 exactly, so a sum of at most this
# many ±1 terms is exact in float32 whatever the order of its additions.
FLOAT32_EXACT_TERMS = 2**24


def _word_count(n: int) -> int:
    return (n + WORD_BITS - 1) // WORD_BITS


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


@dataclass(frozen=True)
class BitTensor:
    """A ±1 tensor packed along its innermost axis.

    ``words`` has shape ``shape[:-1] + (ceil(shape[-1] / 64),)`` and dtype
    uint64. Bit ``i`` of a row lives in word ``i // 64`` at position
    ``i % 64``.
    """

    shape: tuple[int, ...]
    words: np.ndarray

    def __post_init__(self):
        expected = self.shape[:-1] + (_word_count(self.shape[-1]),)
        if self.words.shape != expected:
            raise ValueError(
                f"word array shape {self.words.shape} does not match logical "
                f"shape {self.shape} (expected {expected})"
            )
        self.words.setflags(write=False)


def binarize(t: np.ndarray) -> BitTensor:
    """Map a float tensor element-wise through sign and pack it.

    The tie rule is sign(0) = +1. Raises ValueError naming the offending
    index if the input contains NaN or infinity.
    """
    t = np.asarray(t)
    if t.ndim == 0:
        raise ValueError("cannot binarize a scalar")
    finite = np.isfinite(t)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"non-finite value {t[idx]} at index {idx}")
    return _pack_bits(t >= 0)


def _pack_bits(bits: np.ndarray) -> BitTensor:
    """Pack a boolean array along its last axis; pad bits are set to 1 (+1)."""
    shape = bits.shape
    n = shape[-1]
    padded = _word_count(n) * WORD_BITS
    if padded != n:
        pad = np.ones(shape[:-1] + (padded - n,), dtype=bool)
        bits = np.concatenate([bits.astype(bool), pad], axis=-1)
    packed = np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    words = np.ascontiguousarray(packed).view(np.uint64)
    return BitTensor(shape=tuple(shape), words=words)


def unpack(bt: BitTensor) -> np.ndarray:
    """Expand a BitTensor back to a float32 ±1 array."""
    bytes_ = np.ascontiguousarray(bt.words).view(np.uint8)
    bits = np.unpackbits(bytes_, axis=-1, bitorder="little")
    bits = bits[..., : bt.shape[-1]]
    return (bits.astype(np.float32) * 2.0 - 1.0).reshape(bt.shape)


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


def parameter_bits(shape: tuple[int, ...]) -> int:
    """Stored bits for a packed tensor of the given logical shape."""
    rows = math.prod(shape[:-1]) if len(shape) > 1 else 1
    return rows * _word_count(shape[-1]) * WORD_BITS
