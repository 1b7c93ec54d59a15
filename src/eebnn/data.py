"""Synthetic audio corpus, WAV manifests, and the feature bank that fits clips to a model.

The synthetic generator produces one-second 16 kHz clips. Each class owns a
(signature kind, base frequency) pair; kinds cycle through six waveform
shapes and base frequencies climb a geometric ladder, so up to 24 classes
stay pairwise distinguishable. Difficulty tiers differ only in the
signal-to-noise ratio: easy clips are nearly clean, hard clips sit below the
noise floor.

Datasets move between processes as a manifest CSV with columns
`path,label,split` plus WAV files referenced relative to the CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frontend


class DataError(Exception):
    """Dataset files missing or malformed."""


SIGNATURE_KINDS = ("tone", "chirp_up", "chirp_down", "am", "two_tone", "harmonic")
BASE_FREQ_HZ = 350.0
FREQ_STEP = 1.45
SNR_DB = {"easy": 20.0, "hard": -3.0}
CLIP_SECONDS = 1.0
SAMPLE_RATE = 16000  # synthetic clips and the WAVs write_manifest saves


def class_signature(label: int) -> tuple[str, float]:
    """(kind, base frequency) for a class index; distinct for labels < 24."""
    kind = SIGNATURE_KINDS[label % len(SIGNATURE_KINDS)]
    f0 = BASE_FREQ_HZ * FREQ_STEP ** (label % 8)
    return kind, f0


@dataclass(frozen=True)
class Sample:
    pcm: np.ndarray  # float32 in [-1, 1]
    label: int
    split: str  # "train" | "test"
    tier: str | None = None  # "easy" | "hard" when known
    path: str | None = None


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    n_classes: int
    name: str = "dataset"

    def __post_init__(self):
        for s in self.samples:
            if not 0 <= s.label < self.n_classes:
                raise DataError(f"label {s.label} outside [0, {self.n_classes})")
            if s.split not in ("train", "test"):
                raise DataError(f"unknown split tag {s.split!r}")

    def split(self, tag: str) -> list[Sample]:
        return [s for s in self.samples if s.split == tag]


def _signature_wave(kind: str, f0: float, n: int, rate: int, rng) -> np.ndarray:
    t = np.arange(n) / rate
    dur = n / rate
    f = f0 * rng.uniform(0.98, 1.02)
    phase = rng.uniform(0.0, 2 * np.pi)
    if kind == "tone":
        y = np.sin(2 * np.pi * f * t + phase)
    elif kind in ("chirp_up", "chirp_down"):
        f_lo, f_hi = 0.75 * f, 1.3 * f
        if kind == "chirp_down":
            f_lo, f_hi = f_hi, f_lo
        y = np.sin(2 * np.pi * (f_lo * t + (f_hi - f_lo) * t**2 / (2 * dur)) + phase)
    elif kind == "am":
        y = np.sin(2 * np.pi * f * t + phase) * (0.55 + 0.45 * np.sin(2 * np.pi * 6.0 * t))
    elif kind == "two_tone":
        y = 0.6 * np.sin(2 * np.pi * f * t + phase) + 0.6 * np.sin(2 * np.pi * 1.35 * f * t)
    elif kind == "harmonic":
        y = sum((1.0 / h) * np.sin(2 * np.pi * h * f * t + h * phase) for h in range(1, 5))
    else:
        raise ValueError(f"unknown signature kind {kind!r}")
    return y * rng.uniform(0.5, 0.9)


def _with_noise(sig: np.ndarray, snr_db: float, rng) -> np.ndarray:
    sig_power = float(np.mean(sig**2))
    noise_power = sig_power / 10.0 ** (snr_db / 10.0)
    noisy = sig + rng.standard_normal(sig.size) * np.sqrt(noise_power)
    peak = np.max(np.abs(noisy))
    if peak > 0.95:
        noisy *= 0.95 / peak
    return noisy.astype(np.float32)


def synth_tier_counts(n_classes: int, per_class: int, difficulty_mix) -> dict[str, int]:
    """Clips per class in each tier; a ValueError for arguments `synth_dataset` rejects."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("need at least 1 sample per class")
    if isinstance(difficulty_mix, str):
        mix = {"easy": {"easy": 1.0}, "hard": {"hard": 1.0}, "mixed": {"easy": 0.5, "hard": 0.5}}.get(
            difficulty_mix
        )
        if mix is None:
            raise ValueError(f"difficulty_mix must be easy/hard/mixed or a dict, got {difficulty_mix!r}")
    else:
        mix = dict(difficulty_mix)
    bad = set(mix) - set(SNR_DB)
    if bad or not mix or any(v < 0 for v in mix.values()) or sum(mix.values()) <= 0:
        raise ValueError(f"bad difficulty mix {mix}")
    total = sum(mix.values())
    counts = {tier: int(round(per_class * v / total)) for tier, v in mix.items()}
    drift = per_class - sum(counts.values())
    first = next(iter(counts))
    counts[first] += drift
    return {t: c for t, c in counts.items() if c > 0}


def synth_dataset(n_classes: int, per_class: int, difficulty_mix="mixed", seed: int = 0) -> Dataset:
    """Balanced synthetic dataset, split 80/20 per class and tier."""
    counts = synth_tier_counts(n_classes, per_class, difficulty_mix)
    rng = np.random.default_rng(seed)
    n = int(round(CLIP_SECONDS * SAMPLE_RATE))
    samples = []
    for label in range(n_classes):
        kind, f0 = class_signature(label)
        for tier, count in counts.items():
            n_test = count - int(round(count * 0.8))
            for i in range(count):
                sig = _signature_wave(kind, f0, n, SAMPLE_RATE, rng)
                pcm = _with_noise(sig, SNR_DB[tier], rng)
                split = "train" if i < count - n_test else "test"
                samples.append(Sample(pcm=pcm, label=label, split=split, tier=tier))
    return Dataset(tuple(samples), n_classes, name=f"synth{n_classes}")


# --- manifests ------------------------------------------------------------------


def write_manifest(dataset: Dataset, out_dir) -> Path:
    """Export WAVs plus manifest.csv; returns the manifest path."""
    out = Path(out_dir)
    (out / "wavs").mkdir(parents=True, exist_ok=True)
    rows = []
    for i, s in enumerate(dataset.samples):
        tier = s.tier or "clip"
        rel = f"wavs/{s.label:02d}_{tier}_{i:05d}.wav"
        frontend.write_wav(out / rel, s.pcm, SAMPLE_RATE)
        rows.append((rel, s.label, s.split))
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "label", "split"])
        w.writerows(rows)
    return manifest


def load_manifest(manifest_path, expected_rate: int = SAMPLE_RATE) -> Dataset:
    """Read a `path,label,split` CSV; WAV paths are relative to the CSV."""
    manifest = Path(manifest_path)
    if not manifest.is_file():
        raise DataError(f"manifest not found: {manifest}")
    base = manifest.parent
    samples = []
    raw = manifest.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw[: e.start].count(b"\n") + 1
        raise DataError(f"{manifest} line {line}: not UTF-8 text: {e}") from e
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        fieldnames, rows = reader.fieldnames, list(reader)
    except csv.Error as e:  # the DictReader's own line_num lags the failed line
        raise DataError(f"{manifest} line {reader.reader.line_num}: {e}") from e
    required = ("path", "label", "split")
    if fieldnames is None or not set(required).issubset(fieldnames):
        raise DataError(f"manifest {manifest} must have columns path,label,split")
    for lineno, row in enumerate(rows, start=2):
        where = f"{manifest} line {lineno}"
        missing = [k for k in required if row[k] is None]
        if missing:
            raise DataError(f"{where}: missing field {', '.join(missing)}")
        if None in row:  # csv.DictReader's key for fields beyond the header
            raise DataError(f"{where}: {len(row[None])} field(s) beyond the header's "
                            f"{len(fieldnames)}")
        try:
            label = int(row["label"])
        except ValueError as e:
            raise DataError(f"{where}: {e}") from e
        if label < 0:
            raise DataError(f"{where}: label {label} is negative")
        if row["split"] not in ("train", "test"):
            raise DataError(f"{where}: unknown split tag {row['split']!r}, expected train or test")
        wav = base / row["path"]
        if not wav.is_file():
            raise DataError(f"{where}: missing WAV {wav}")
        try:
            pcm, _ = frontend.load_wav(wav, expected_rate=expected_rate)
        except frontend.WavFormatError as e:
            raise DataError(f"{where}: {e}") from e
        tier = None
        parts = Path(row["path"]).stem.split("_")
        if len(parts) >= 2 and parts[1] in ("easy", "hard"):
            tier = parts[1]
        samples.append(Sample(pcm=pcm, label=label, split=row["split"], tier=tier, path=row["path"]))
    if not samples:
        raise DataError(f"manifest {manifest} lists no samples")
    n_classes = max(s.label for s in samples) + 1
    try:
        return Dataset(tuple(samples), n_classes, name=manifest.parent.name)
    except DataError as e:
        raise DataError(f"manifest {manifest}: {e}") from e


# --- feature caching --------------------------------------------------------------


def fit_frames(feat: np.ndarray, n_frames: int, log_floor: float = 1e-6) -> np.ndarray:
    """Center-crop or pad the time axis to n_frames (pad value = silence)."""
    t = feat.shape[0]
    if t == n_frames:
        return feat
    if t > n_frames:
        start = (t - n_frames) // 2
        return feat[start : start + n_frames]
    pad = n_frames - t
    fill = np.log(log_floor)
    return np.pad(feat, ((pad // 2, pad - pad // 2), (0, 0)), constant_values=fill)


class FeatureBank:
    """The one place a clip is fitted to a model's n_frames input frames.

    Whole-clip features are computed once per sample and cached. Evaluation
    center-crops or pads them (`fit_frames`). Training takes a random
    n_frames window from a clip with more frames, and otherwise uses the
    evaluation feature, so a short clip is padded the same way in both.
    """

    def __init__(self, dataset: Dataset, cfg: frontend.FrontendConfig | None = None, *,
                 n_frames: int):
        self.cfg = cfg or frontend.FrontendConfig()
        self.dataset = dataset
        self.n_frames = n_frames
        self._clips: dict[int, np.ndarray] = {}

    def _clip(self, i: int) -> np.ndarray:
        """Whole-clip features of sample i; a clip the front-end rejects
        raises DataError naming its file."""
        if i not in self._clips:
            s = self.dataset.samples[i]
            try:
                self._clips[i] = frontend.featurize(s.pcm, self.cfg).data.astype(np.float64)
            except ValueError as e:
                raise DataError(f"{s.path or f'sample {i}'}: {e}") from e
        return self._clips[i]

    def eval_feature(self, i: int) -> np.ndarray:
        return fit_frames(self._clip(i), self.n_frames, self.cfg.log_floor)

    def train_feature(self, i: int, rng) -> np.ndarray:
        feat = self._clip(i)
        spare = feat.shape[0] - self.n_frames
        if spare <= 0:
            return self.eval_feature(i)
        start = int(rng.integers(0, spare + 1))
        return feat[start : start + self.n_frames]

    def train_batch(self, indices, rng) -> np.ndarray:
        feats = [self.train_feature(int(i), rng) for i in indices]
        return np.stack(feats)[..., None]

    def eval_batch(self, indices) -> np.ndarray:
        feats = [self.eval_feature(int(i)) for i in indices]
        return np.stack(feats)[..., None]
