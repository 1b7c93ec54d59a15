"""Training tests: losses, optimizer contracts, loop behavior."""
import dataclasses
import json

import numpy as np
import pytest

from eebnn import arch, data, frontend, runtime, training
from eebnn.training import (PROB_FLOOR, Optimizer, TrainConfig, TrainingDiverged, _batch_losses,
                            adam_update, bop_update, train_loop)


def test_cross_entropy_known_value():
    # logits log(p) give back the distribution p under softmax
    probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.25, 0.25]])
    labels = np.array([1, 0])
    total, exit_losses, dlogits = _batch_losses([np.log(probs)], labels, (1.0,))
    expected = np.mean([-np.log(0.7), -np.log(0.5)])
    assert exit_losses[0] == pytest.approx(expected, rel=1e-12)
    assert total == pytest.approx(expected, rel=1e-12)
    onehot = np.eye(3)[labels]
    np.testing.assert_allclose(dlogits[0], (probs - onehot) / 2, atol=1e-15)


def test_cross_entropy_prob_floor():
    # exp(-1000) underflows to zero; the floor keeps the loss finite
    total, exit_losses, _ = _batch_losses([np.array([[0.0, -1000.0]])], np.array([1]), (1.0,))
    assert exit_losses[0] == pytest.approx(-np.log(PROB_FLOOR))
    assert total == exit_losses[0]


def test_joint_loss_weighted_sum():
    probs = [np.array([0.6, 0.4]), np.array([0.2, 0.8]), np.array([0.5, 0.5]),
             np.array([0.9, 0.1]), np.array([0.3, 0.7])]
    logits = [np.log(p)[None] for p in probs]
    labels = np.array([0])
    total, exit_losses, _ = _batch_losses(logits, labels, (1.0,) * 5)
    assert total == pytest.approx(sum(-np.log(p[0]) for p in probs), rel=1e-12)
    w = (1.0, 0.0, 0.0, 0.0, 2.0)
    total_w, exit_losses_w, dlogits_w = _batch_losses(logits, labels, w)
    assert exit_losses_w == exit_losses
    assert total_w == pytest.approx(-np.log(0.6) - 2 * np.log(0.3), rel=1e-12)
    assert not dlogits_w[1].any()  # a zero-weight exit sends no gradient


@pytest.mark.parametrize("kw", [
    dict(optimizer="sgd"),
    dict(lr=0.0),
    dict(batch_size=0),
    dict(epochs=-1),
    dict(exit_weights=(1.0, 1.0)),
    dict(exit_weights=(0.0,) * 5),
    dict(exit_weights=(1.0, 1.0, 1.0, 1.0, -1.0)),
    dict(exit_weights=(1.0, 1.0, 1.0, 1.0, float("nan"))),
])
def test_train_config_rejects(kw):
    with pytest.raises(ValueError):
        TrainConfig(**kw)


def test_train_config_dict_round_trip():
    cfg = TrainConfig(optimizer="adam", lr=0.01, batch_size=7, epochs=3, seed=9,
                      exit_weights=(1, 2, 3, 4, 5), bop_gamma=0.5, bop_tau=0.1)
    assert TrainConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_adam_matches_scalar_reference():
    lr, b1, b2, eps = 0.1, training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    p = np.array([1.0, -2.0], dtype=np.float32)
    m_arr, v_arr = np.zeros(2), np.zeros(2)
    grads_seq = [np.array([0.5, -1.0]), np.array([-0.2, 0.3]), np.array([0.0, 2.0])]

    ref = [1.0, -2.0]
    m = [0.0, 0.0]
    v = [0.0, 0.0]
    for t, g in enumerate(grads_seq, start=1):
        adam_update(p, g, m_arr, v_arr, t, lr)
        for i in range(2):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] ** 2
            mh = m[i] / (1 - b1**t)
            vh = v[i] / (1 - b2**t)
            ref[i] -= np.float32(lr * mh / (np.sqrt(vh) + eps))
        np.testing.assert_allclose(p, np.array(ref, dtype=np.float32), rtol=1e-6)
    assert p.dtype == np.float32


def test_adam_first_step_magnitude():
    p = np.array([0.0], dtype=np.float32)
    adam_update(p, np.array([10.0]), np.zeros(1), np.zeros(1), t=1, lr=0.05)
    assert p[0] == pytest.approx(-0.05, rel=1e-4)


def test_bop_matches_scalar_reference():
    rng = np.random.default_rng(42)
    gamma, tau = 0.3, 0.05
    w = np.where(rng.standard_normal(20) >= 0, 1.0, -1.0).astype(np.float32)
    ref_w = w.astype(np.float64).tolist()
    ref_m = [0.0] * 20
    m = np.zeros(20)
    for _ in range(50):
        g = rng.standard_normal(20) * 0.2
        bop_update(w, g, m, gamma, tau)
        for i in range(20):
            ref_m[i] = (1 - gamma) * ref_m[i] + gamma * g[i]
            if abs(ref_m[i]) > tau and (ref_m[i] > 0) == (ref_w[i] > 0):
                ref_w[i] = -ref_w[i]
        assert np.array_equal(w, np.array(ref_w, dtype=np.float32))
        np.testing.assert_allclose(m, ref_m, rtol=1e-12)
        assert np.all(np.abs(w) == 1.0)


def test_bop_flip_rule_edges():
    # momentum exactly tau must not flip (strict inequality)
    w = np.array([1.0])
    m = np.zeros(1)
    bop_update(w, np.array([0.5]), m, gamma=1.0, tau=0.5)
    assert w[0] == 1.0
    # above tau with matching sign flips
    bop_update(w, np.array([0.6]), m, gamma=1.0, tau=0.5)
    assert w[0] == -1.0
    # now momentum positive but weight negative: sign mismatch, no flip
    bop_update(w, np.array([0.6]), m, gamma=1.0, tau=0.5)
    assert w[0] == -1.0


def test_bop_state_validation():
    # the γ and τ ranges are checked once, where the config is built
    with pytest.raises(ValueError, match="bop gamma"):
        TrainConfig(bop_gamma=0.0)
    with pytest.raises(ValueError, match="bop tau"):
        TrainConfig(bop_tau=0.0)


def test_optimizer_bop_snaps_binary_weights():
    model = arch.build(arch.toy_spec("quicknet", n_classes=4), seed=1)
    assert any(np.abs(a).max() < 1.0 for _, _, _, a, b in model.named_params() if b)
    Optimizer(model, TrainConfig(optimizer="bop", epochs=1))
    for _, _, _, arr, is_bin in model.named_params():
        if is_bin:
            assert np.all(np.abs(arr) == 1.0)


def test_bop_training_keeps_weights_binary(easy_dataset, feature_bank):
    model = arch.build(arch.toy_spec("quicknet", n_classes=4), seed=6)
    cfg = TrainConfig(optimizer="bop", epochs=1, batch_size=32, seed=2, lr=0.01,
                      bop_gamma=1e-2, bop_tau=1e-4)
    train_loop(model, easy_dataset, cfg, bank=feature_bank)
    for _, _, _, arr, is_bin in model.named_params():
        if is_bin:
            assert np.all(np.abs(arr) == 1.0)


def test_zero_epochs_leaves_model_untouched(easy_dataset, feature_bank):
    model = arch.build(arch.toy_spec("quicknet", n_classes=4), seed=5)
    before = {path: arr.copy() for path, _, _, arr, _ in model.named_params()}
    feat = feature_bank.eval_feature(0)
    probs_before = [d for d, _, _ in runtime.exit_outputs(model, feat)]
    history = train_loop(model, easy_dataset, TrainConfig(epochs=0), bank=feature_bank)
    assert history == []
    for path, _, _, arr, _ in model.named_params():
        np.testing.assert_array_equal(arr, before[path])
    probs_after = [d for d, _, _ in runtime.exit_outputs(model, feat)]
    for a, b in zip(probs_before, probs_after, strict=True):
        np.testing.assert_array_equal(a, b)


def test_divergence_raises(easy_dataset, feature_bank):
    model = arch.build(arch.toy_spec("quicknet", n_classes=4), seed=5)
    # poison a head affine: upstream nans would be crushed to -1 by sign()
    model.exits[0].bias[:] = np.nan
    cfg = TrainConfig(optimizer="adam", epochs=1, batch_size=16, seed=0)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        train_loop(model, easy_dataset, cfg, bank=feature_bank)


def test_history_schema_and_loss_identity(easy_dataset, feature_bank):
    model = arch.build(arch.toy_spec("quicknet", n_classes=4), seed=7)
    cfg = TrainConfig(optimizer="adam", epochs=2, batch_size=64, seed=3, lr=0.003)
    hist = train_loop(model, easy_dataset, cfg, bank=feature_bank)
    assert [h["epoch"] for h in hist] == [1, 2]
    for h in hist:
        assert set(h) == {"epoch", "loss", "exit_losses", "train_acc", "test_acc", "seconds"}
        assert len(h["exit_losses"]) == 5
        assert len(h["train_acc"]) == len(h["test_acc"]) == 5
        assert np.isfinite(h["loss"])
        # unit exit weights: joint loss is the plain sum of the per-exit means
        assert h["loss"] == pytest.approx(sum(h["exit_losses"]), rel=1e-9)
        assert all(0.0 <= a <= 1.0 for a in h["train_acc"] + h["test_acc"])


def test_training_is_deterministic(easy_dataset, feature_bank):
    cfg = TrainConfig(optimizer="adam", epochs=1, batch_size=64, seed=11, lr=0.003)
    runs = []
    for _ in range(2):
        model = arch.build(arch.toy_spec("quicknet", n_classes=4), seed=2)
        train_loop(model, easy_dataset, cfg, bank=feature_bank)
        runs.append({path: arr.copy() for path, _, _, arr, _ in model.named_params()})
    for path in runs[0]:
        np.testing.assert_array_equal(runs[0][path], runs[1][path])


def test_exit_accuracies_trained_model(trained_model, easy_dataset, feature_bank, test_indices):
    labels = [easy_dataset.samples[i].label for i in test_indices]
    accs = training.exit_accuracies(trained_model, feature_bank, test_indices, labels)
    assert accs.shape == (5,)
    assert np.all((accs >= 0.0) & (accs <= 1.0))
    assert accs[-1] >= 0.9  # the fixture recipe reaches a confident final exit


def test_exit_accuracies_do_not_depend_on_eval_batch_size(trained_model, easy_dataset, feature_bank,
                                                          monkeypatch):
    """The batch size is a speed knob only: same accuracies and same logits at 1, 8 and 32."""
    indices = list(range(len(easy_dataset.samples)))[::3]  # 54 clips: ragged at 8 and 32
    labels = [easy_dataset.samples[i].label for i in indices]
    forward = trained_model.forward_train
    accs, logits = {}, {}
    for size in (1, 8, 32):
        batches = []
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", size)
        monkeypatch.setattr(trained_model, "forward_train",
                            lambda xb, mode: batches.append(forward(xb, mode)) or batches[-1])
        accs[size] = training.exit_accuracies(trained_model, feature_bank, indices, labels)
        logits[size] = [np.concatenate([b[e] for b in batches]) for e in range(arch.N_EXITS)]
        assert len(batches) == -(-len(indices) // size)
    for size in (8, 32):
        assert np.array_equal(accs[size], accs[1])
        assert all(np.array_equal(a, b) for a, b in zip(logits[size], logits[1]))
    assert accs[1][-1] >= 0.9


def test_train_loop_featurizes_each_clip_once(monkeypatch):
    ds = data.synth_dataset(3, 10, seed=1)
    calls = []
    featurize = frontend.featurize
    monkeypatch.setattr(frontend, "featurize", lambda pcm, cfg: calls.append(1) or featurize(pcm, cfg))
    model = arch.build(arch.toy_spec("quicknet", n_classes=3), seed=0)
    train_loop(model, ds, TrainConfig(optimizer="adam", epochs=1, batch_size=8))
    assert len(calls) == len(ds.samples) == 30
