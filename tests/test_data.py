"""Synthetic-dataset and manifest tests."""
import numpy as np
import pytest

from eebnn import data, frontend
from eebnn.data import (DataError, Dataset, FeatureBank, Sample, class_signature,
                        fit_frames, load_manifest, synth_dataset, write_manifest)


def test_class_signatures_distinct_up_to_24():
    sigs = [class_signature(c) for c in range(24)]
    assert len(set(sigs)) == 24
    # label 24 wraps back onto label 0
    assert class_signature(24) == class_signature(0)


def test_synth_dataset_shape_and_balance():
    ds = synth_dataset(4, 20, "mixed", seed=1)
    assert ds.n_classes == 4
    assert len(ds.samples) == 80
    assert ds.name == "synth4"
    for label in range(4):
        cls = [s for s in ds.samples if s.label == label]
        assert len(cls) == 20
        for tier in ("easy", "hard"):
            tiered = [s for s in cls if s.tier == tier]
            assert len(tiered) == 10
            assert sum(1 for s in tiered if s.split == "test") == 2  # 80/20 per tier
    for s in ds.samples:
        assert s.pcm.dtype == np.float32
        assert len(s.pcm) == 16000
        assert np.max(np.abs(s.pcm)) <= 0.95 + 1e-6


def test_synth_dataset_single_tier():
    ds = synth_dataset(2, 10, "easy", seed=0)
    assert all(s.tier == "easy" for s in ds.samples)
    ds_h = synth_dataset(2, 10, "hard", seed=0)
    assert all(s.tier == "hard" for s in ds_h.samples)


def test_synth_dataset_snr_tiers_differ():
    ds = synth_dataset(2, 30, "mixed", seed=3)

    def flatness(s):
        # noise-dominated clips have a much flatter spectrum than tonal ones
        p = np.abs(np.fft.rfft(s.pcm.astype(np.float64))) ** 2 + 1e-12
        return float(np.exp(np.mean(np.log(p))) / np.mean(p))

    easy = np.mean([flatness(s) for s in ds.samples if s.tier == "easy"])
    hard = np.mean([flatness(s) for s in ds.samples if s.tier == "hard"])
    assert hard > 5 * easy


def test_synth_dataset_deterministic():
    a = synth_dataset(3, 8, "mixed", seed=11)
    b = synth_dataset(3, 8, "mixed", seed=11)
    c = synth_dataset(3, 8, "mixed", seed=12)
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.pcm, sb.pcm)
        assert (sa.label, sa.split, sa.tier) == (sb.label, sb.split, sb.tier)
    assert any(not np.array_equal(sa.pcm, sc.pcm) for sa, sc in zip(a.samples, c.samples))


def test_synth_dataset_validation():
    with pytest.raises(ValueError, match="classes"):
        synth_dataset(1, 10)
    with pytest.raises(ValueError, match="per class"):
        synth_dataset(2, 0)
    with pytest.raises(ValueError, match="difficulty_mix"):
        synth_dataset(2, 10, "medium")


def test_dataset_validates_members():
    s = Sample(pcm=np.zeros(100, dtype=np.float32), label=5, split="train")
    with pytest.raises(DataError, match="label"):
        Dataset((s,), n_classes=2)
    s2 = Sample(pcm=np.zeros(100, dtype=np.float32), label=0, split="val")
    with pytest.raises(DataError, match="split"):
        Dataset((s2,), n_classes=2)


def test_manifest_round_trip(tmp_path):
    ds = synth_dataset(3, 6, "mixed", seed=2)
    manifest = write_manifest(ds, tmp_path / "corpus")
    assert manifest.name == "manifest.csv"
    loaded = load_manifest(manifest)
    assert loaded.n_classes == 3
    assert len(loaded.samples) == len(ds.samples)
    for orig, back in zip(ds.samples, loaded.samples):
        assert back.label == orig.label
        assert back.split == orig.split
        assert back.tier == orig.tier  # tier survives via the filename
        np.testing.assert_allclose(back.pcm, orig.pcm, atol=2 / 32767)  # 16-bit quantization


def test_load_manifest_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_manifest(tmp_path / "nope.csv")

    bad = tmp_path / "bad.csv"
    bad.write_text("file,cls\nx.wav,0\n")
    with pytest.raises(DataError, match="columns"):
        load_manifest(bad)

    missing = tmp_path / "missing.csv"
    missing.write_text("path,label,split\ngone.wav,0,train\n")
    with pytest.raises(DataError, match="missing WAV"):
        load_manifest(missing)

    # a wav at the wrong sample rate is a data error, not a crash
    wrong = tmp_path / "wrong.csv"
    frontend.write_wav(tmp_path / "w.wav", np.zeros(800, dtype=np.float32), 8000)
    wrong.write_text("path,label,split\nw.wav,0,train\n")
    with pytest.raises(DataError, match="line 2"):
        load_manifest(wrong)

    empty = tmp_path / "empty.csv"
    empty.write_text("path,label,split\n")
    with pytest.raises(DataError, match="no samples"):
        load_manifest(empty)


@pytest.mark.parametrize("row,message", [
    ("a.wav,0,", "unknown split tag '', expected train or test"),
    ("a.wav,0,valid", "unknown split tag 'valid', expected train or test"),
    ("a.wav,-1,test", "label -1 is negative"),
    ("a.wav,0,test,extra", "1 field(s) beyond the header's 3"),
    ("a.wav,x,test", "invalid literal for int()"),
], ids=["empty-split", "unknown-split", "negative-label", "extra-field", "bad-label"])
def test_load_manifest_names_the_bad_line(tmp_path, row, message):
    frontend.write_wav(tmp_path / "a.wav", np.zeros(16000, dtype=np.float32), 16000)
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,label,split\na.wav,1,train\n{row}\n")
    with pytest.raises(DataError) as err:
        load_manifest(manifest)
    assert str(err.value).startswith(f"{manifest} line 3: {message}")


def test_load_manifest_accepts_columns_beyond_path_label_split(tmp_path):
    frontend.write_wav(tmp_path / "a.wav", np.zeros(16000, dtype=np.float32), 16000)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,split,note\na.wav,1,train,loud\na.wav,0,test,\n")
    ds = load_manifest(manifest)
    assert [(s.label, s.split) for s in ds.samples] == [(1, "train"), (0, "test")]


def test_fit_frames_crop_and_pad():
    feat = np.arange(12, dtype=np.float64).reshape(6, 2)
    same = fit_frames(feat, 6)
    np.testing.assert_array_equal(same, feat)
    cropped = fit_frames(feat, 4)
    np.testing.assert_array_equal(cropped, feat[1:5])
    padded = fit_frames(feat, 8, log_floor=1e-6)
    assert padded.shape == (8, 2)
    assert padded[0, 0] == np.log(1e-6)
    np.testing.assert_array_equal(padded[1:7], feat)


def test_feature_bank_caches_and_shapes(easy_dataset):
    bank = FeatureBank(easy_dataset, n_frames=98)
    f0 = bank.eval_feature(0)
    assert f0.shape == (98, 64)
    assert bank.eval_feature(0) is f0  # cached object reused
    rng = np.random.default_rng(0)
    t0 = bank.train_feature(0, rng)
    assert t0.shape == (98, 64)
    assert bank.train_feature(0, rng) is t0  # 1 s clip: crop is deterministic
    batch = bank.eval_batch([0, 1, 2])
    assert batch.shape == (3, 98, 64, 1)
    np.testing.assert_array_equal(batch[0, :, :, 0], f0)
    tb = bank.train_batch([0, 1], rng)
    assert tb.shape == (2, 98, 64, 1)


def test_feature_bank_short_clip_trains_as_evaluated():
    pcm = np.random.default_rng(8).uniform(-0.5, 0.5, 8000).astype(np.float32)  # 0.5 s
    bank = FeatureBank(Dataset((Sample(pcm=pcm, label=0, split="train"),), n_classes=1),
                       n_frames=98)
    ev = bank.eval_feature(0)
    assert ev.shape == (98, 64)
    assert ev[0, 0] == np.log(frontend.FrontendConfig().log_floor)  # padded with silence
    np.testing.assert_array_equal(bank.train_feature(0, np.random.default_rng(0)), ev)


def test_feature_bank_long_clip_window_deterministic():
    pcm = np.random.default_rng(8).uniform(-0.5, 0.5, 24000).astype(np.float32)  # 1.5 s
    bank = FeatureBank(Dataset((Sample(pcm=pcm, label=0, split="train"),), n_classes=1),
                       n_frames=98)
    a = bank.train_feature(0, np.random.default_rng(9))
    assert a.shape == (98, 64)
    np.testing.assert_array_equal(bank.train_feature(0, np.random.default_rng(9)), a)
    whole = frontend.featurize(pcm).data
    start = int(np.random.default_rng(9).integers(0, whole.shape[0] - 98 + 1))
    np.testing.assert_array_equal(a, whole[start : start + 98])  # a window of the whole clip


def test_feature_bank_random_crop_for_long_clips():
    long_pcm = np.random.default_rng(4).uniform(-0.5, 0.5, 24000).astype(np.float32)
    ds = Dataset((Sample(pcm=long_pcm, label=0, split="train"),
                  Sample(pcm=long_pcm, label=1, split="test")), n_classes=2)
    bank = FeatureBank(ds, n_frames=98)
    r1 = bank.train_feature(0, np.random.default_rng(1))
    r2 = bank.train_feature(0, np.random.default_rng(2))
    assert r1.shape == (98, 64)
    assert not np.array_equal(r1, r2)  # crop position varies with the rng
    ev = bank.eval_feature(1)
    assert ev.shape == (98, 64)  # longer clip center-cropped to the model width
