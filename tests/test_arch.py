"""Architecture tests: spec validation, engine parity, costs, the lazy trunk runner."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from eebnn import arch, layers, modelio, runtime, training
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
    w = modelio.binarize(self.latent.astype(np.float64))
    return np.stack([oracles.binary_conv2d(modelio.binarize(xi), w, self.geom) for xi in x]).astype(np.float64)


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
        rec = runtime.infer_fixed_exit(model, feat, k, label=7)
        # head k alone was read, on the same activation as in the full pass
        assert len(read) == k and read[-1][0] is model.exits[k - 1]
        np.testing.assert_array_equal(read[-1][1], dist)
        assert rec.exit_index == k and rec.prediction == int(np.argmax(dist)) and rec.label == 7
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


@pytest.mark.parametrize("family", ["quicknet", "birealnet", "binarydensenet", "meliusnet"])
def test_backward_matches_finite_difference(family, monkeypatch):
    """Every family's backward, with sign patched to the float64 clip: the shortcut
    tiling on the 4 -> 6 width change, the dense concat split and the improvement
    conv included."""
    monkeypatch.setattr(layers, "binarized", oracles.clip_binarized)
    model = build(micro_spec(family), seed=11)
    rng = np.random.default_rng(23)
    xb = rng.uniform(-1.0, 1.0, (2, *MICRO_SHAPE))
    labels = np.array([0, 2])
    mode = layers.Mode(train=True)

    def losses():
        return training._batch_losses(model.forward_train(xb, mode), labels, (1.0,) * 5)

    model.backward_train(losses()[2])

    worst = 0.0
    for _, lay, pname, arr, is_bin in model.named_params():
        flat = arr.reshape(-1)
        # a latent stepped across +-1 would leave the clip's linear range; a
        # real parameter gets criterion 4's small step, as a larger one moves
        # some clipped activation across +-1
        h = 1e-3 if is_bin else 1e-5
        eligible = np.flatnonzero(np.abs(flat) < 0.95) if is_bin else np.arange(flat.size)
        for i in rng.choice(eligible, size=min(3, eligible.size), replace=False):
            orig = flat[i]
            flat[i] = np.float32(float(orig) + h)
            up = float(flat[i]) - float(orig)
            lp = losses()[0]
            flat[i] = np.float32(float(orig) - h)
            dn = float(orig) - float(flat[i])
            lm = losses()[0]
            flat[i] = orig
            fd = (lp - lm) / (up + dn)
            g = lay.grads[pname].reshape(-1)[i]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-6))
    assert worst < 1e-4


def _arrays(cache):
    """Every array in a layer's cache, nested tuples included."""
    if isinstance(cache, np.ndarray):
        return [cache]
    if isinstance(cache, tuple):
        return [a for item in cache for a in _arrays(item)]
    return []


def _train_step(model, xb, labels):
    dlogits = training._batch_losses(model.forward_train(xb, layers.Mode(train=True)), labels, (1.0,) * 5)[2]
    model.backward_train(dlogits)


@pytest.mark.parametrize("family", ["quicknet", "birealnet", "binarydensenet", "meliusnet"])
def test_training_step_caches_conv_inputs_only_and_backward_frees_every_cache(family, monkeypatch):
    model = build(micro_spec(family), seed=6)
    xb = np.random.default_rng(7).standard_normal((3, *MICRO_SHAPE))
    convs = [lay for _, lay in model.named_layers() if isinstance(lay, (layers.BinConv2d, layers.RealConv2d))]
    input_size = {}
    for cls in (layers.BinConv2d, layers.RealConv2d):
        def recording(self, x, mode, forward=cls.forward):
            input_size[id(self)] = x.size
            return forward(self, x, mode)
        monkeypatch.setattr(cls, "forward", recording)

    model.forward_train(xb, layers.Mode(train=True))
    assert len(input_size) == len(convs)
    for conv in convs:
        # the input itself, never its k·k-times larger im2col columns
        cached = _arrays(conv._cache)
        assert cached and all(a.size <= input_size[id(conv)] for a in cached)

    monkeypatch.undo()
    _train_step(model, xb, np.array([0, 1, 2]))
    assert all(lay._cache is None for _, lay in model.named_layers())


def test_training_step_traced_peak_stays_below_cached_columns():
    """One batch-8 step of toy quicknet: 27 MiB traced peak when convs cache
    their input; 54 MiB when each conv kept its float32 im2col columns until
    its next forward."""
    model = build(toy_spec("quicknet"), seed=0)
    xb = np.random.default_rng(1).standard_normal((8, *model.spec.input_shape))
    labels = np.arange(8) % 6
    _train_step(model, xb, labels)
    tracemalloc.start()
    try:
        _train_step(model, xb, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


# MiB; each bound sits between the traced peak of a batch-8 step when a binary
# conv cached its float64 input and built whole float64 weight-gradient
# columns (27, 27, 51 and 79 MiB) and when it caches its float32 ±1 input and
# bool STE mask and builds one tap's columns at a time (13, 13, 23 and 38 MiB)
STEP_PEAK_BOUNDS = {"quicknet": 20, "birealnet": 20, "binarydensenet": 36, "meliusnet": 58}


@pytest.mark.parametrize("family", list(STEP_PEAK_BOUNDS))
def test_training_step_traced_peak_per_family(family):
    model = build(toy_spec(family), seed=0)
    xb = np.random.default_rng(1).standard_normal((8, *model.spec.input_shape))
    labels = np.arange(8) % 6
    _train_step(model, xb, labels)
    tracemalloc.start()
    try:
        _train_step(model, xb, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_BOUNDS[family] * 2**20


@pytest.mark.parametrize("family", ["quicknet", "birealnet", "binarydensenet", "meliusnet"])
def test_executed_macs_match_bookkeeping(family, monkeypatch):
    """The MACs of the GEMMs that actually run, against exit_costs, total_macs and records."""
    executed = 0
    conv_forward, head_forward = layers._conv_forward, layers.ExitHead.forward

    def counting_conv(x, w, geom, pad_value):
        nonlocal executed
        y = conv_forward(x, w, geom, pad_value)
        executed += y[..., 0].size * w.size  # rows × k·k·C × O
        return y

    def counting_head(self, act, mode):
        nonlocal executed
        executed += act.shape[0] * self.latent.size  # rows × C × classes
        return head_forward(self, act, mode)

    monkeypatch.setattr(layers, "_conv_forward", counting_conv)
    monkeypatch.setattr(layers.ExitHead, "forward", counting_head)
    model = build(micro_spec(family), seed=6)
    feat = random_feature(5)

    def ran(fn):
        nonlocal executed
        executed = 0
        return fn(), executed

    for k in range(1, 6):
        assert ran(lambda: runtime.infer_fixed_exit(model, feat, k))[1] == model.exit_costs[k - 1]
    assert ran(lambda: list(runtime.exit_outputs(model, feat)))[1] == model.total_macs

    # thresholds just above each exit's entropy, plus never and always exiting first
    entropies = [runtime.entropy(p) for p in exit_probs(model, feat)]
    exits = set()
    for delta in (0.0, *np.nextafter(entropies, np.inf), 10.0):
        rule = runtime.DecisionRule(threshold=float(delta))
        rec, macs = ran(lambda: runtime.infer_early_exit(model, feat, rule))
        assert rec.macs == macs
        exits.add(rec.exit_index)
    assert {1, 5} <= exits


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
