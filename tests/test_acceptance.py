"""Acceptance suite: one test per numbered criterion, one line of output each.

Criteria 1-8 gate the build. Criterion 9 needs a user-supplied external
corpus and is reported as a skip with instructions (see README).

The desk-scale thresholds in criterion 6 were frozen after a recorded pilot
run of the exact recipe used here (adam, 25 epochs, batch 32, lr 0.003,
model seed 7, data seed 20): baseline accuracy 1.000, delta-0.5 accuracy
0.971 at mean exit 3.98, easy-tier mean exit 3.86 vs hard-tier 4.09,
total wall time 364 s.
"""
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from eebnn import arch, bitops, data, evaluation, frontend, layers, modelio, runtime, training

GRID = (0.1, 0.25, 0.5, 0.75, 1.0)

# channel counts straddling the 64-bit word boundaries
WORD_CROSSING = [1, 2, 3, 5, 31, 32, 33, 63, 64, 65, 96, 127, 128, 130]


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk():
    """Trained 6-class toy model plus its threshold sweep, wall-clock timed."""
    t0 = time.perf_counter()
    ds = data.synth_dataset(6, 170, "mixed", seed=20)
    bank = data.FeatureBank(ds, n_frames=98)
    model = arch.build(arch.toy_spec("quicknet", n_classes=6), seed=7)
    cfg = training.TrainConfig(optimizer="adam", epochs=25, batch_size=32, seed=1, lr=0.003)
    training.train_loop(model, ds, cfg, bank=bank)
    sw = evaluation.sweep(model, ds, GRID, bank=bank)
    seconds = time.perf_counter() - t0
    test_idx = [i for i, s in enumerate(ds.samples) if s.split == "test"]
    return SimpleNamespace(model=model, ds=ds, bank=bank, sweep=sw,
                           seconds=seconds, test_idx=test_idx)


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    mismatches = 0
    for case in range(1000):
        if case % 2 == 0:
            cin = int(rng.choice(WORD_CROSSING))
            cout = int(rng.integers(1, 7))
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            padding = str(rng.choice(["same", "valid"]))
            h = int(rng.integers(k, k + 5))
            w = int(rng.integers(k, k + 5))
            geom = bitops.ConvGeometry(k, stride, padding, cin, cout)
            x = np.where(rng.standard_normal((h, w, cin)) >= 0, 1.0, -1.0)
            wt = np.where(rng.standard_normal((cout, k, k, cin)) >= 0, 1.0, -1.0)
            got = bitops.binary_conv2d(bitops.binarize(x), bitops.binarize(wt), geom)
            want = bitops.conv2d_reference(x, wt, geom)
        else:
            n = int(rng.choice(WORD_CROSSING))
            units = int(rng.integers(1, 9))
            x = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
            wt = np.where(rng.standard_normal((units, n)) >= 0, 1.0, -1.0)
            got = bitops.binary_dense(bitops.binarize(x), bitops.binarize(wt))
            want = bitops.dense_reference(x, wt)
        if not np.array_equal(np.asarray(got, dtype=np.float64), want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(1, mismatches == 0 and elapsed < 60.0,
            f"1000 randomized conv/dense cases, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_frontend_contract():
    cfg = frontend.FrontendConfig()
    rng = np.random.default_rng(7)
    pcm = rng.uniform(-0.5, 0.5, 16000).astype(np.float32)
    feat = frontend.featurize(pcm, cfg).data
    shape_ok = feat.shape == (98, 64)

    frames = frontend.frame_and_window(pcm.astype(np.float64), cfg)
    spec = frontend.power_spectrum(frames, cfg)
    full = spec.copy()
    full[:, 1:-1] *= 2
    freq_energy = full.sum(axis=1) / cfg.fft_size
    time_energy = (frames**2).sum(axis=1)
    parseval_rel = float(np.max(np.abs(freq_energy - time_energy) / time_energy))

    t = np.arange(16000) / 16000.0
    tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    tone_spec = frontend.power_spectrum(frontend.frame_and_window(tone, cfg), cfg)
    peak_bin = int(np.argmax(tone_spec.mean(axis=0)))

    _report(2, shape_ok and parseval_rel < 1e-3 and peak_bin == 32,
            f"shape {feat.shape}, Parseval rel err {parseval_rel:.2e}, 1 kHz peak bin {peak_bin}")


@pytest.mark.slow
def test_criterion_3_threshold_boundaries(desk):
    samples = desk.test_idx[:200]
    force_last = runtime.DecisionRule("entropy", 0.0)
    force_first = runtime.DecisionRule("entropy", math.log(6) + 0.01)
    at_last = at_first = 0
    for i in samples:
        feat = desk.bank.eval_feature(i)
        at_last += runtime.infer_early_exit(desk.model, feat, force_last).exit_index == 5
        at_first += runtime.infer_early_exit(desk.model, feat, force_first).exit_index == 1

    # per-sample exit monotonicity across the grid, from the sweep's records
    violations = 0
    per_delta = [desk.sweep.records[d] for d in GRID]
    for j in range(200):
        exits = [recs[j].exit_index for recs in per_delta]
        if any(b > a for a, b in zip(exits, exits[1:])):
            violations += 1

    _report(3, at_last == 200 and at_first == 200 and violations == 0,
            f"delta=0: {at_last}/200 at exit 5; delta=ln6+0.01: {at_first}/200 at exit 1; "
            f"{violations} monotonicity violations")


def test_criterion_4_gradient_checks():
    spec = arch.ArchSpec(family="quicknet", widths=(4, 6), blocks=(3, 3), n_classes=3,
                         input_shape=(12, 10, 1))
    model = arch.build(spec, seed=11)
    n_params = model.param_count()
    rng = np.random.default_rng(23)
    xb = rng.uniform(-1.0, 1.0, (2, 12, 10, 1))
    labels = np.array([0, 2])
    mode = layers.Mode(train=True, surrogate=True)

    def loss():
        logits = model.forward_train(xb, mode)
        total, _, _ = training._batch_losses(logits, labels, (1.0,) * 5)
        return total

    model.zero_grads()
    logits = model.forward_train(xb, mode)
    total, _, dlogits = training._batch_losses(logits, labels, (1.0,) * 5)
    model.backward_train(dlogits)

    h = 1e-5
    worst = 0.0
    checked = 0
    for path, lay, pname, arr, is_bin in model.named_params():
        if is_bin:
            continue
        g = lay.grads[pname]
        flat = arr.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = np.float32(float(orig) + h)
            up = float(flat[i]) - float(orig)
            lp = loss()
            flat[i] = np.float32(float(orig) - h)
            dn = float(orig) - float(flat[i])
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (up + dn)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
            worst = max(worst, rel)
            checked += 1

    # exact zero gradient outside |latent| <= 1 under the sign backward
    model2 = arch.build(spec, seed=11)
    conv = model2.blocks[0].conv
    conv.latent[0, 0, 0, 0] = 1.5
    conv.latent[0, 1, 1, 0] = -2.0
    model2.zero_grads()
    logits = model2.forward_train(xb, layers.Mode(train=True, surrogate=False))
    _, _, dlogits = training._batch_losses(logits, labels, (1.0,) * 5)
    model2.backward_train(dlogits)
    gl = conv.grads["latent"]
    ste_exact = gl[0, 0, 0, 0] == 0.0 and gl[0, 1, 1, 0] == 0.0 and np.any(gl != 0.0)

    _report(4, n_params <= 2000 and worst < 1e-3 and ste_exact,
            f"{n_params} params, {checked} real entries checked, worst rel err {worst:.2e}, "
            f"STE zero outside clip: {ste_exact}")


def test_criterion_5_bop_contract():
    rng = np.random.default_rng(77)
    gamma, tau = 0.05, 0.01
    shapes = [(40,), (6, 3, 3, 4), (5, 16)]
    params = {f"w{j}": np.where(rng.standard_normal(s) >= 0, 1.0, -1.0).astype(np.float32)
              for j, s in enumerate(shapes)}
    ref_w = {k: v.astype(np.float64).copy() for k, v in params.items()}
    ref_m = {k: np.zeros(v.shape) for k, v in params.items()}
    state = training.BopState(gamma=gamma, tau=tau)
    steps = 200
    exact = True
    flips = 0
    for _ in range(steps):
        grads = {k: rng.standard_normal(v.shape) * 0.3 for k, v in params.items()}
        step_w = {k: v.copy() for k, v in params.items()}
        training.step_bop(params, grads, state)
        for k in params:
            ref_m[k] = (1 - gamma) * ref_m[k] + gamma * grads[k]
            flip = (np.abs(ref_m[k]) > tau) & ((ref_m[k] > 0) == (ref_w[k] > 0))
            ref_w[k] = np.where(flip, -ref_w[k], ref_w[k])
            flips += int(flip.sum())
            if not np.array_equal(params[k], ref_w[k].astype(np.float32)):
                exact = False
            if not np.all(np.abs(params[k]) == 1.0):
                exact = False
            # anything that changed must be an allowed flip
            changed = params[k] != step_w[k]
            if np.any(changed & ~flip):
                exact = False
    _report(5, exact and flips > 0,
            f"{steps} steps x {sum(np.prod(s) for s in shapes)} weights vs scalar reference, "
            f"{flips} flips, all exactly +-1: {exact}")


@pytest.mark.slow
def test_criterion_6_desk_scale_early_exit(desk):
    base = desk.sweep.baseline_accuracy  # unconditional final exit = delta 0 predictions
    mid = desk.sweep.row(0.5)
    easy = [r.exit_index for r, i in zip(desk.sweep.records[0.5], desk.test_idx)
            if desk.ds.samples[i].tier == "easy"]
    hard = [r.exit_index for r, i in zip(desk.sweep.records[0.5], desk.test_idx)
            if desk.ds.samples[i].tier == "hard"]
    a = base >= 0.9
    b = mid.mean_exit < 5.0 and abs(mid.accuracy - base) <= 0.05
    c = np.mean(easy) < np.mean(hard)
    in_time = desk.seconds < 600.0
    _report(6, a and b and c and in_time,
            f"(a) final acc {base:.3f} >= 0.9: {a}; "
            f"(b) delta 0.5 mean exit {mid.mean_exit:.2f} < 5, acc gap "
            f"{abs(mid.accuracy - base):.3f} <= 0.05: {b}; "
            f"(c) easy {np.mean(easy):.2f} < hard {np.mean(hard):.2f}: {c}; "
            f"{desk.seconds:.0f}s < 600s: {in_time}")


@pytest.mark.slow
def test_criterion_7_cost_honesty(desk):
    model = desk.model
    full = runtime.DecisionRule("entropy", 0.0)
    first = runtime.DecisionRule("entropy", float("inf"))
    macs_ok = True
    for i in desk.test_idx[:20]:
        feat = desk.bank.eval_feature(i)
        r0 = runtime.infer_early_exit(model, feat, full)
        rinf = runtime.infer_early_exit(model, feat, first)
        macs_ok &= r0.macs == model.total_macs
        macs_ok &= rinf.macs == model.exit_costs[0]

    bench = evaluation.bench_exits(model, desk.bank.eval_feature(desk.test_idx[0]),
                                   repeats=40, warmup=5)
    medians = [r["median_ms"] for r in bench]
    non_decreasing = all(b >= a for a, b in zip(medians, medians[1:]))
    _report(7, macs_ok and non_decreasing,
            f"delta=0 macs == total and delta=inf macs == exit-1 prefix on 20 samples: {macs_ok}; "
            f"bench medians {['%.2f' % m for m in medians]} ms non-decreasing: {non_decreasing}")


@pytest.mark.slow
def test_criterion_8_serialization(desk, tmp_path):
    path = tmp_path / "trained.eebnn"
    modelio.save_model(desk.model, path)
    loaded, _ = modelio.load_model(path)
    feat = desk.bank.eval_feature(desk.test_idx[0])
    a = [d for d, _, _ in runtime.exit_outputs(desk.model, feat)]
    b = [d for d, _, _ in runtime.exit_outputs(loaded, feat)]
    round_trip = (desk.model.exit_costs == loaded.exit_costs
                  and desk.model.total_macs == loaded.total_macs
                  and all(np.array_equal(pa, pb) for pa, pb in zip(a, b)))

    raw = bytearray(path.read_bytes())
    flipped = tmp_path / "flip.eebnn"
    raw[-1] ^= 0xFF
    flipped.write_bytes(raw)
    cut = tmp_path / "cut.eebnn"
    cut.write_bytes(path.read_bytes()[:-50])
    fake = tmp_path / "fake.eebnn"
    fake.write_bytes(b"JUNK" + path.read_bytes()[4:])
    rejected = 0
    for candidate, err in ((flipped, modelio.ChecksumError), (cut, modelio.TruncatedError),
                           (fake, modelio.BadMagicError)):
        try:
            modelio.load_model(candidate)
        except err:
            rejected += 1

    aligned = arch.build(
        arch.ArchSpec(family="quicknet", widths=(64, 64), blocks=(3, 3), n_classes=6,
                      input_shape=(12, 10, 1), stem_channels=64),
        seed=0,
    )
    report = modelio.save_model(aligned, tmp_path / "aligned.eebnn")
    ratio = report["compression_ratio"]

    _report(8, round_trip and rejected == 3 and ratio == 1 / 32,
            f"round-trip bit-exact: {round_trip}; corrupted variants rejected: {rejected}/3; "
            f"word-aligned binary blobs at {ratio:.4f} of float32")


def test_criterion_9_scaled_corpus_qualitative():
    pytest.skip(
        "criterion 9 is optional and not gating: it needs a user-supplied external "
        "keyword corpus; README describes the train/sweep commands to reproduce the "
        "qualitative accuracy-vs-threshold curve on one"
    )
