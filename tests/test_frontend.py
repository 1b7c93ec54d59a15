import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eebnn import frontend
from eebnn.data import Dataset, FeatureBank, Sample


CFG = frontend.FrontendConfig()


def tone(freq, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def test_default_config_values():
    assert CFG.window_samples == 400
    assert CFG.hop_samples == 160
    assert CFG.n_spectrum_bins == 257
    assert CFG.n_mels == 64


def test_frame_count_boundaries():
    assert frontend.frame_count(16000, CFG) == 98
    assert frontend.frame_count(400, CFG) == 1
    assert frontend.frame_count(559, CFG) == 1
    assert frontend.frame_count(560, CFG) == 2
    assert frontend.frame_count(16160, CFG) == 99


def test_one_second_gives_98x64():
    feat = frontend.featurize(tone(1000.0), CFG)
    assert feat.data.shape == (98, 64)
    assert feat.data.dtype == np.float32


def test_two_second_eval_uses_whole_clip():
    feat = frontend.featurize(tone(500.0, seconds=2.0), CFG)
    assert feat.data.shape == (frontend.frame_count(32000, CFG), 64)


def train_bank(pcm):
    """A one-clip FeatureBank: the training crop of a featurized clip lives there."""
    sample = Sample(pcm=pcm.astype(np.float32), label=0, split="train")
    return FeatureBank(Dataset((sample,), n_classes=1), n_frames=98, cfg=CFG)


def test_train_crop_is_one_second():
    bank = train_bank(tone(500.0, seconds=2.0))
    assert bank.train_feature(0, np.random.default_rng(3)).shape == (98, 64)


def test_train_crop_deterministic_under_rng():
    bank = train_bank(tone(700.0, seconds=1.5))
    a = bank.train_feature(0, np.random.default_rng(9))
    b = bank.train_feature(0, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_1khz_peak_at_fft_bin_32():
    frames = frontend.frame_and_window(tone(1000.0), CFG)
    spec = frontend.power_spectrum(frames, CFG)
    assert int(np.argmax(spec.mean(axis=0))) == 32  # 1000 / (16000/512)


@pytest.mark.parametrize("n", [400, 401, 799, 16000, 24000])
def test_framing_equals_gather_formulation(n):
    pcm = np.random.default_rng(n).standard_normal(n)
    win, hop = CFG.window_samples, CFG.hop_samples
    t = frontend.frame_count(n, CFG)
    idx = np.arange(win)[None, :] + hop * np.arange(t)[:, None]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    want = pcm[idx] * hann[None, :]
    got = frontend.frame_and_window(pcm, CFG)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_parseval_on_windowed_frame():
    # rfft energy must match time-domain energy of the windowed frame
    rng = np.random.default_rng(0)
    pcm = rng.standard_normal(16000)
    frames = frontend.frame_and_window(pcm, CFG)
    spec = frontend.power_spectrum(frames, CFG)  # |X_k|^2 over 257 bins
    # double the non-DC/non-Nyquist bins to cover the negative frequencies
    full = spec.copy()
    full[:, 1:-1] *= 2
    freq_energy = full.sum(axis=1) / CFG.fft_size
    time_energy = (frames**2).sum(axis=1)
    rel = np.abs(freq_energy - time_energy) / time_energy
    assert float(rel.max()) < 1e-3


def test_mel_scale_htk_reference_points():
    assert frontend.hz_to_mel(0.0) == 0.0
    assert abs(frontend.hz_to_mel(700.0) - 2595.0 * math.log10(2.0)) < 1e-9
    assert abs(frontend.mel_to_hz(frontend.hz_to_mel(1234.5)) - 1234.5) < 1e-6


def test_filterbank_shape_and_band_limits():
    fb = frontend.mel_filterbank(CFG)
    assert fb.shape == (64, 257)
    freqs = np.arange(257) * CFG.sample_rate / CFG.fft_size
    active = fb.sum(axis=0) > 0
    assert not active[freqs < 55].any()
    assert not active[freqs > 7850].any()


def test_tone_lands_in_nearest_mel_filter():
    mel_pts = np.linspace(frontend.hz_to_mel(CFG.fmin), frontend.hz_to_mel(CFG.fmax), CFG.n_mels + 2)
    centers = frontend.mel_to_hz(mel_pts)[1:-1]
    for freq in (350.0, 1000.0, 3000.0):
        feat = frontend.featurize(tone(freq), CFG)
        hot = int(np.argmax(feat.data.mean(axis=0)))
        nearest = int(np.argmin(np.abs(centers - freq)))
        assert abs(hot - nearest) <= 1, (freq, hot, nearest)


def test_log_floor_on_silence():
    feat = frontend.featurize(np.zeros(16000), CFG)
    assert np.allclose(feat.data, np.log(CFG.log_floor))


def test_louder_is_larger():
    quiet = frontend.featurize(tone(1000.0, amp=0.1), CFG).data
    loud = frontend.featurize(tone(1000.0, amp=0.8), CFG).data
    band = np.argmax(loud.mean(axis=0))
    assert loud[:, band].mean() > quiet[:, band].mean()


def test_wav_roundtrip(tmp_path):
    pcm = tone(440.0).astype(np.float32)
    p = tmp_path / "t.wav"
    frontend.write_wav(p, pcm, 16000)
    back, rate = frontend.load_wav(p)
    assert rate == 16000
    assert back.shape == pcm.shape
    assert np.abs(back - pcm).max() < 1.0 / 32767 + 1e-6


def test_load_wav_rejects_wrong_rate(tmp_path):
    p = tmp_path / "t.wav"
    frontend.write_wav(p, tone(440.0), 8000)
    with pytest.raises(frontend.WavFormatError, match="8000"):
        frontend.load_wav(p, expected_rate=16000)


def _with_size_fields(raw: bytes, size: bytes) -> bytes:
    """The WAV bytes with the RIFF and data chunk size fields set to `size`."""
    data = raw.index(b"data")
    return raw[:4] + size + raw[8 : data + 4] + size + raw[data + 8 :]


def test_load_wav_rejects_data_shorter_than_its_header(tmp_path):
    """A cut on a sample boundary is caught by the declared sample count."""
    p = tmp_path / "t.wav"
    frontend.write_wav(p, tone(440.0), 16000)
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(frontend.WavFormatError,
                       match=f"{p}: audio data holds 15999 samples, its header declares 16000"):
        frontend.load_wav(p)


def test_load_wav_reads_a_streaming_placeholder_size_to_the_end(tmp_path):
    p, streamed = tmp_path / "t.wav", tmp_path / "streamed.wav"
    frontend.write_wav(p, tone(440.0), 16000)
    streamed.write_bytes(_with_size_fields(p.read_bytes(), b"\xff\xff\xff\xff"))
    pcm, rate = frontend.load_wav(streamed)
    assert rate == 16000
    assert np.array_equal(pcm, frontend.load_wav(p)[0])
    # the end of the file still has to fall on a sample boundary
    streamed.write_bytes(streamed.read_bytes()[:-1])
    with pytest.raises(frontend.WavFormatError, match="ends mid-sample"):
        frontend.load_wav(streamed)


def test_config_validation():
    with pytest.raises(ValueError):
        frontend.FrontendConfig(n_mels=0)
    with pytest.raises(ValueError):
        frontend.FrontendConfig(fmin=5000.0, fmax=1000.0)
    with pytest.raises(ValueError):
        frontend.FrontendConfig(fft_size=300)  # smaller than the window
