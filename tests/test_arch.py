"""Architecture tests: spec validation, engine parity, costs, the lazy trunk runner."""

import dataclasses
import json

import numpy as np
import pytest

from eebnn import arch, bitops, layers, runtime
from eebnn.arch import ArchSpec, build, toy_spec

MICRO_SHAPE = (12, 10, 1)


def micro_spec(family, **kw):
    return ArchSpec(family=family, widths=(4, 6), blocks=(3, 3), n_classes=3,
                    input_shape=MICRO_SHAPE, **kw)


def random_feature(seed=0, shape=MICRO_SHAPE):
    return np.random.default_rng(seed).standard_normal(shape)


def exit_probs(model, feat):
    return [d for d, _, _ in runtime.exit_outputs(model, feat)]


def test_family_suffix_normalization():
    spec = micro_spec("quicknet-style")
    assert spec.family == "quicknet"
    spec2 = micro_spec("meliusnet")
    assert spec2.family == "meliusnet"


@pytest.mark.parametrize("kw,msg", [
    (dict(family="resnet", widths=(4, 6), blocks=(3, 3), n_classes=3), "unknown family"),
    (dict(family="quicknet", widths=(4,), blocks=(3, 3), n_classes=3), "same length"),
    (dict(family="quicknet", widths=(4, 6), blocks=(2, 2), n_classes=3), "at least 5 blocks"),
    (dict(family="quicknet", widths=(4, 6), blocks=(3, 3), n_classes=1), "two classes"),
    (dict(family="quicknet", widths=(4, 0), blocks=(3, 3), n_classes=3), "width"),
    (dict(family="quicknet", widths=(4, 6), blocks=(3, 3), n_classes=3,
          exit_placements=(1, 2, 3, 4)), "exit placements"),
    (dict(family="quicknet", widths=(4, 6), blocks=(3, 3), n_classes=3,
          exit_placements=(1, 3, 2, 4, 6)), "strictly increasing"),
    (dict(family="quicknet", widths=(4, 6), blocks=(3, 3), n_classes=3,
          exit_placements=(1, 2, 3, 4, 5)), "final block"),
])
def test_spec_validation_rejects(kw, msg):
    kw.setdefault("input_shape", MICRO_SHAPE)
    with pytest.raises(ValueError, match=msg):
        ArchSpec(**kw)


def test_input_shape_validation():
    with pytest.raises(ValueError, match="input shape"):
        ArchSpec(family="quicknet", widths=(4, 6), blocks=(3, 3), n_classes=3,
                 input_shape=(12, 10, 2))


def test_spec_dict_round_trip():
    spec = micro_spec("birealnet", exit_placements=(1, 2, 3, 4, 6))
    assert ArchSpec(**json.loads(json.dumps(dataclasses.asdict(spec)))) == spec


def _bit_kernel_forward(self, x, mode):
    """BinConv2d.forward through the XNOR/popcount kernel, one sample at a time."""
    w = bitops.binarize(self.latent.astype(np.float64))
    return np.stack([bitops.binary_conv2d(bitops.binarize(xi), w, self.geom) for xi in x]).astype(np.float64)


@pytest.mark.parametrize("family", ["quicknet", "birealnet", "binarydensenet", "meliusnet"])
def test_build_and_routes_agree(family, monkeypatch):
    model = build(micro_spec(family), seed=4)
    feats = [random_feature(s) for s in (1, 2, 3)]

    probs1 = exit_probs(model, feats[1])
    assert len(probs1) == 5
    for p in probs1:
        assert p.shape == (3,)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
    assert all(b > a for a, b in zip(model.exit_costs, model.exit_costs[1:]))

    # a sample gets the same numbers alone as in a batch
    logits = model.forward_train(np.stack(feats), layers.Mode())
    for i, feat in enumerate(feats):
        probs = exit_probs(model, feat)
        for k in range(5):
            np.testing.assert_array_equal(layers.softmax(logits[k][i]), probs[k])

    # and the same numbers as with every binary conv on the bit kernel
    monkeypatch.setattr(layers.BinConv2d, "forward", _bit_kernel_forward)
    for p, q in zip(exit_probs(model, feats[1]), probs1, strict=True):
        np.testing.assert_array_equal(p, q)


def test_inference_reads_current_weights_and_caches_nothing():
    model = build(micro_spec("meliusnet"), seed=5)
    feat = random_feature(4)
    before = exit_probs(model, feat)
    every_layer = [model.stem, model.stem_bn, *model.exits,
                   *(lay for blk in model.blocks for lay in vars(blk).values()
                     if isinstance(lay, layers.Layer))]
    assert all(lay._cache is None for lay in every_layer)

    model.exits[0].latent[0, 0] *= -1.0  # flips one binary weight of exit 1
    after = exit_probs(model, feat)
    assert not np.array_equal(after[0], before[0])
    for p, q in zip(after[1:], before[1:]):
        np.testing.assert_array_equal(p, q)


@pytest.mark.parametrize("family", ["quicknet", "birealnet", "binarydensenet", "meliusnet"])
def test_prefix_matches_full_pass(family, monkeypatch):
    """The fixed exit (trunk prefix to exit k, head k alone) against the all-exit pass."""
    model = build(micro_spec(family), seed=8)
    feat = random_feature(2)
    outputs = list(runtime.exit_outputs(model, feat))
    assert len(outputs) == 5

    read = []
    exit_distribution = arch.exit_distribution
    monkeypatch.setattr(arch, "exit_distribution",
                        lambda head, x: read.append((head, exit_distribution(head, x))) or read[-1][1])
    for k in range(1, 6):
        dist = outputs[k - 1][0]
        rec = runtime.infer_fixed_exit(model, feat, k)
        # head k alone was read, on the same activation as in the full pass
        assert len(read) == k and read[-1][0] is model.exits[k - 1]
        np.testing.assert_array_equal(read[-1][1], dist)
        assert rec.exit_index == k and rec.prediction == int(np.argmax(dist))
        assert rec.confidence == runtime.entropy(dist) and rec.trail == (rec.confidence,)
        # standalone cost: stem, blocks up to the placement, head k alone
        standalone = (model.stem_macs + sum(model.block_macs[: model.placements[k - 1]])
                      + model.exits[k - 1].macs)
        assert standalone == model.exit_costs[k - 1] == rec.macs
        # the full chain also pays for every earlier head
        assert outputs[k - 1][1] == standalone + sum(h.macs for h in model.exits[: k - 1])

    # the full chain that evaluates every head on the way costs the full pass
    assert outputs[-1][1] == model.total_macs

    for k in (0, 6):
        with pytest.raises(ValueError, match="out of range"):
            runtime.infer_fixed_exit(model, feat, k)


def test_total_macs_decomposition():
    model = build(micro_spec("quicknet"), seed=0)
    trunk = model.stem_macs + sum(model.block_macs)
    assert model.total_macs == trunk + sum(h.macs for h in model.exits)
    assert model.exit_costs[-1] == trunk + model.exits[-1].macs


def test_feature_shape_validation():
    model = build(micro_spec("quicknet"), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        model.exit_activations(np.zeros((5, 5, 1)))
    with pytest.raises(ValueError, match="does not match"):
        model.forward_train(np.zeros((2, 5, 5, 1)), layers.Mode(train=True))


def test_toy_quicknet_placements_and_param_count():
    model = build(toy_spec("quicknet", n_classes=6), seed=0)
    assert model.placements == (1, 2, 4, 5, 6)
    # closed form: stem 3x3x1x16 + BN pairs + six 3x3 binary convs + heads
    convs = 9 * (16 * 16 + 16 * 16 + 16 * 32 + 32 * 32 + 32 * 64 + 64 * 64)
    bns = 2 * (16 + 16 + 16 + 32 + 32 + 64 + 64)  # stem_bn plus one per block
    heads = 6 * (16 + 16 + 32 + 64 + 64) + 5 * (6 + 6)
    assert model.param_count() == 9 * 16 + convs + bns + heads == 75564


def test_default_placements_cover_trunk():
    for family in ("quicknet", "binarydensenet"):
        model = build(micro_spec(family), seed=1)
        p = model.placements
        assert len(p) == 5
        assert all(b > a for a, b in zip(p, p[1:]))
        assert p[0] >= 1 and p[-1] == model.spec.n_blocks
        assert model.spec.exit_placements == p  # spec is materialized after default choice


def test_build_is_deterministic_per_seed():
    m1 = build(micro_spec("meliusnet"), seed=12)
    m2 = build(micro_spec("meliusnet"), seed=12)
    m3 = build(micro_spec("meliusnet"), seed=13)
    p1 = {path: a for path, _, _, a, _ in m1.named_params()}
    p2 = {path: a for path, _, _, a, _ in m2.named_params()}
    p3 = {path: a for path, _, _, a, _ in m3.named_params()}
    assert p1.keys() == p2.keys() == p3.keys()
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])
    assert any(not np.array_equal(p1[k], p3[k]) for k in p1)


def test_stage_transitions_pool_spatially():
    model = build(micro_spec("quicknet"), seed=0)
    # stem halves (12, 10) -> (6, 5); the second stage pools to (3, 3)
    assert model.block_hw[0] == (6, 5)
    assert model.pool_before == {4}
    assert model.block_hw[3] == (3, 3)


def test_binary_param_inventory():
    model = build(micro_spec("quicknet"), seed=0)
    binary = [path for path, _, _, _, is_bin in model.named_params() if is_bin]
    # one latent per block conv plus one per exit head
    assert len(binary) == model.spec.n_blocks + 5
    assert all(name.endswith(".latent") for name in binary)
    real = [path for path, _, _, _, is_bin in model.named_params() if not is_bin]
    assert "stem.w" in real
    assert not any(name.endswith(".latent") for name in real)
