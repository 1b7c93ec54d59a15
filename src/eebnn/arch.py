"""Multi-exit binary network families built from a declarative ArchSpec.

A model is a real-weight stem convolution (stride 2) with batch-norm, a flat
list of binary blocks grouped into stages (2x2 average pooling between
stages), and five exit heads attached after configurable block indices. Every
block is built from one unit, a binary conv followed by batch-norm, and the
binary conv binarises its own input and weights (`layers.BinConv2d`). The
four families differ only in the wiring around that unit:

* quicknet: the unit alone;
* birealnet: the unit plus a real-valued identity shortcut (parameter-free
  channel tiling when widths change);
* binarydensenet: the unit's output, a fixed number of new channels, is
  concatenated onto the input;
* meliusnet: dense growth followed by a second unit, an improvement conv
  that refines the newly added channels in place.

One trunk loop (`Model.trunk`) serves every route: it runs the layers' own
forward on an (N, H, W, C) batch and lazily yields the activation at each
exit placement, so a consumer that stops asking stops the trunk there.
Training calls it on float batches in train mode, where each layer caches
its input-side state until its backward frees it; inference calls it in
eval mode, which caches nothing, on a batch of one
(`Model.exit_activations`). Per sample, the heads are read
only by `runtime.exit_outputs` (every exit, lazily) and
`runtime.infer_fixed_exit` (one exit), both through `exit_activations` and
`exit_distribution`. Binary layers compute on ±1 values
in float32, where every dot product is an exact integer (k·k·C ≤ 2**24),
and cast it to float64 before batch-norm; the real-valued path stays
float64. So a sample gets the same numbers alone or in any batch and the
same numbers as XNOR/popcount over the packed bits `modelio` stores.

Compute is tracked in MACs (multiply-accumulates): convolutions and the exit
dense layers are counted, element-wise ops and pooling are not. Each exit's
standalone cost is stem + blocks up to its placement + its own head; a full
pass that evaluates all heads additionally pays for every head.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import layers

N_EXITS = 5


@dataclass(frozen=True)
class ArchSpec:
    """Declarative description of a multi-exit network.

    widths is per-stage output channels for quicknet/birealnet and per-stage
    growth for the dense families. exit_placements are 1-based block indices;
    None picks five placements spaced roughly evenly by cumulative MACs.
    """

    family: str
    widths: tuple[int, ...]
    blocks: tuple[int, ...]
    n_classes: int
    input_shape: tuple[int, int, int] = (98, 64, 1)
    exit_placements: tuple[int, ...] | None = None
    stem_channels: int | None = None

    def __post_init__(self):
        fam = self.family.removesuffix("-style")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        if self.exit_placements is not None:
            object.__setattr__(self, "exit_placements", tuple(int(p) for p in self.exit_placements))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not self.widths or len(self.widths) != len(self.blocks):
            raise ValueError("widths and blocks must be non-empty and the same length")
        if any(w <= 0 for w in self.widths):
            raise ValueError("zero or negative stage width")
        if any(b <= 0 for b in self.blocks):
            raise ValueError("zero or negative stage block count")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if len(self.input_shape) != 3 or self.input_shape[2] != 1 or min(self.input_shape[:2]) < 1:
            raise ValueError(f"input shape must be (T, n_mels, 1), got {self.input_shape}")
        n_blocks = sum(self.blocks)
        if n_blocks < N_EXITS:
            raise ValueError(f"need at least {N_EXITS} blocks for {N_EXITS} exits, got {n_blocks}")
        p = self.exit_placements
        if p is not None:
            if len(p) != N_EXITS:
                raise ValueError(f"exactly {N_EXITS} exit placements required, got {len(p)}")
            if any(b <= a for a, b in zip(p, p[1:])) or p[0] < 1:
                raise ValueError(f"exit placements must be strictly increasing and >= 1: {p}")
            if p[-1] != n_blocks:
                raise ValueError(f"last exit must sit after the final block ({n_blocks}), got {p[-1]}")

    @property
    def n_blocks(self) -> int:
        return sum(self.blocks)


# --- blocks -------------------------------------------------------------------


class QuickBlock:
    """Binary conv then batch-norm: the unit every family wires up.

    The conv binarises its own input, so quicknet is this unit alone.
    """

    def __init__(self, cin, cout, rng):
        self.conv = layers.BinConv2d(cin, cout, 3, 1, "same", rng)
        self.bn = layers.BatchNorm(cout)
        self.in_channels = cin
        self.out_channels = cout

    def sublayers(self):
        return {"conv": self.conv, "bn": self.bn}

    def forward(self, x, mode):
        return self.bn.forward(self.conv.forward(x, mode), mode)

    def backward(self, dy):
        return self.conv.backward(self.bn.backward(dy))


def _tile_channels(x, cout):
    cin = x.shape[-1]
    if cin == cout:
        return x
    reps = math.ceil(cout / cin)
    return np.concatenate([x] * reps, axis=-1)[..., :cout]


def _tile_channels_backward(dy, cin):
    cout = dy.shape[-1]
    if cin == cout:
        return dy
    dx = np.zeros(dy.shape[:-1] + (cin,))
    for j in range(cout):
        dx[..., j % cin] += dy[..., j]
    return dx


class BirealBlock(QuickBlock):
    """The unit with a real-valued shortcut around it.

    When input and output widths differ the shortcut tiles channels
    cyclically, which keeps it parameter- and MAC-free.
    """

    def forward(self, x, mode):
        return super().forward(x, mode) + _tile_channels(x, self.out_channels)

    def backward(self, dy):
        return super().backward(dy) + _tile_channels_backward(dy, self.in_channels)


class DenseBlock(QuickBlock):
    """Concatenates the unit's `growth` new channels onto the input."""

    def __init__(self, cin, growth, rng):
        super().__init__(cin, growth, rng)
        self.out_channels = cin + growth

    def forward(self, x, mode):
        return np.concatenate([x, super().forward(x, mode)], axis=-1)

    def backward(self, dy):
        c = self.in_channels
        return dy[..., :c] + super().backward(dy[..., c:])


class MeliusBlock(DenseBlock):
    """Dense growth followed by an improvement conv.

    The improvement conv reads the concatenated map and adds a correction to
    the `growth` channels that were just appended.
    """

    def __init__(self, cin, growth, rng):
        super().__init__(cin, growth, rng)
        self.conv2 = layers.BinConv2d(cin + growth, growth, 3, 1, "same", rng)
        self.bn2 = layers.BatchNorm(growth)

    def sublayers(self):
        return {"conv1": self.conv, "bn1": self.bn, "conv2": self.conv2, "bn2": self.bn2}

    def forward(self, x, mode):
        y = super().forward(x, mode)
        y[..., self.in_channels:] += self.bn2.forward(self.conv2.forward(y, mode), mode)
        return y

    def backward(self, dy):
        ddelta = dy[..., self.in_channels:]
        return super().backward(dy + self.conv2.backward(self.bn2.backward(ddelta)))


BLOCK_TYPES = {"quicknet": QuickBlock, "birealnet": BirealBlock,
               "binarydensenet": DenseBlock, "meliusnet": MeliusBlock}
FAMILIES = tuple(BLOCK_TYPES)


# --- model --------------------------------------------------------------------


class Model:
    """A built network: stem, blocks, exit heads, and cost bookkeeping."""

    def __init__(self, spec: ArchSpec, seed: int):
        self.spec = spec
        self.seed = int(seed)
        rng = np.random.default_rng(seed)

        t, f, _ = spec.input_shape
        stem_ch = spec.stem_channels or spec.widths[0]
        self.stem = layers.RealConv2d(1, stem_ch, 3, 2, "same", rng)
        self.stem_bn = layers.BatchNorm(stem_ch)
        h, w = self.stem.geom.out_hw(t, f)
        self.stem_macs = self.stem.geom.macs(t, f)

        self.blocks: list = []
        self.pool_before: set[int] = set()  # 1-based block indices preceded by 2x2 pooling
        self.block_macs: list[int] = []
        self.block_hw: list[tuple[int, int]] = []  # spatial size at each block's input (post-pool)
        c = stem_ch
        idx = 0
        for stage, (width, n) in enumerate(zip(spec.widths, spec.blocks)):
            for j in range(n):
                idx += 1
                if stage > 0 and j == 0:
                    self.pool_before.add(idx)
                    h, w = math.ceil(h / 2), math.ceil(w / 2)
                blk = BLOCK_TYPES[spec.family](c, width, rng)
                self.blocks.append(blk)
                self.block_macs.append(sum(lay.geom.macs(h, w) for lay in blk.sublayers().values()
                                           if isinstance(lay, layers.BinConv2d)))
                self.block_hw.append((h, w))
                c = blk.out_channels
        self.block_channels = [b.out_channels for b in self.blocks]

        trunk_cum = list(itertools.accumulate(self.block_macs, initial=self.stem_macs))[1:]
        if spec.exit_placements is None:
            placements = self._even_mac_placements(trunk_cum)
            self.spec = replace(spec, exit_placements=placements)
        self.placements = self.spec.exit_placements

        self.exits = [
            layers.ExitHead(self.block_channels[p - 1], spec.n_classes, rng) for p in self.placements
        ]
        self.exit_costs = tuple(
            trunk_cum[p - 1] + head.macs for p, head in zip(self.placements, self.exits)
        )
        self.total_macs = trunk_cum[-1] + sum(head.macs for head in self.exits)
        if any(b <= a for a, b in zip(self.exit_costs, self.exit_costs[1:])):
            raise ValueError(f"exit costs not strictly increasing: {self.exit_costs}")

    def _even_mac_placements(self, trunk_cum):
        n = len(trunk_cum)
        total = trunk_cum[-1]
        placements = []
        prev = 0
        for k in range(1, N_EXITS + 1):
            if k == N_EXITS:
                p = n
            else:
                target = self.stem_macs + (total - self.stem_macs) * k / N_EXITS
                lo, hi = prev + 1, n - (N_EXITS - k)
                p = min(range(lo, hi + 1), key=lambda b: abs(trunk_cum[b - 1] - target))
            placements.append(p)
            prev = p
        return tuple(placements)

    # --- parameter traversal ---

    def named_layers(self):
        yield "stem", self.stem
        yield "stem_bn", self.stem_bn
        for i, blk in enumerate(self.blocks, start=1):
            for name, lay in blk.sublayers().items():
                yield f"block{i}.{name}", lay
        for i, head in enumerate(self.exits, start=1):
            yield f"exit{i}", head

    def named_params(self):
        for path, lay in self.named_layers():
            binary = lay.binary_param_names()
            for pname, arr in lay.params().items():
                yield f"{path}.{pname}", lay, pname, arr, pname in binary

    def param_count(self) -> int:
        return sum(arr.size for _, _, _, arr, _ in self.named_params())

    def zero_grads(self):
        for _, lay in self.named_layers():
            lay.zero_grads()

    # --- input handling ---

    def _input_array(self, feature) -> np.ndarray:
        data = getattr(feature, "data", feature)
        x = np.asarray(data, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, :, None]
        if x.shape != self.spec.input_shape:
            raise ValueError(f"feature shape {x.shape} does not match model input {self.spec.input_shape}")
        return x

    # --- the trunk loop and its two callers ---

    def trunk(self, x: np.ndarray, mode: layers.Mode):
        """Yield the (N, H, W, C) activation at each exit placement, exit 1 first.

        Runs the stem and then the blocks lazily: blocks past the last
        activation asked for never run.
        """
        x = self.stem_bn.forward(self.stem.forward(x, mode), mode)
        for b, blk in enumerate(self.blocks, start=1):
            if b in self.pool_before:
                x = layers.avgpool2(x)
            x = blk.forward(x, mode)
            if b in self.placements:
                yield x

    def exit_activations(self, feature):
        """The trunk over one sample in eval mode: a batch of one per exit."""
        return self.trunk(self._input_array(feature)[None], layers.Mode())

    def forward_train(self, xb: np.ndarray, mode: layers.Mode) -> list[np.ndarray]:
        """xb is (N, T, F, 1); returns per-exit logits, each (N, n_classes)."""
        if xb.ndim != 4 or xb.shape[1:] != self.spec.input_shape:
            raise ValueError(f"batch shape {xb.shape} does not match model input {self.spec.input_shape}")
        acts = self.trunk(np.asarray(xb, dtype=np.float64), mode)
        return [head.forward(x, mode) for head, x in zip(self.exits, acts)]

    def backward_train(self, dlogits: list[np.ndarray]) -> None:
        """Accumulates parameter gradients from per-exit logit gradients.

        Each layer frees its training cache as it goes, and the stem computes
        no gradient for the network input.
        """
        dy = None
        exit_i = N_EXITS - 1
        for b in range(len(self.blocks), 0, -1):
            while exit_i >= 0 and self.placements[exit_i] == b:
                dhead = self.exits[exit_i].backward(dlogits[exit_i])
                dy = dhead if dy is None else np.add(dy, dhead, out=dy)
                exit_i -= 1
            dy = self.blocks[b - 1].backward(dy)
            if b in self.pool_before:
                # blocks keep their input's spatial size, so the map pooled
                # before block b had block b-1's input size
                dy = layers.avgpool2_backward(dy, *self.block_hw[b - 2])
        self.stem.backward(self.stem_bn.backward(dy))


def exit_distribution(head: layers.ExitHead, act: np.ndarray) -> np.ndarray:
    """Class distribution of one exit head for a batch-of-one activation."""
    return layers.softmax(head.forward(act, layers.Mode())[0])


def build(spec: ArchSpec, seed: int = 0) -> Model:
    return Model(spec, seed)


def toy_spec(family: str = "quicknet", n_classes: int = 6) -> ArchSpec:
    """Small configuration that trains in minutes on a laptop CPU."""
    return ArchSpec(family=family, widths=(16, 32, 64), blocks=(2, 2, 2), n_classes=n_classes)
