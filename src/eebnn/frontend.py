"""Log-compressed Mel-filterbank front-end for 16 kHz mono audio.

Defaults: 25 ms Hann window, 10 ms hop, 512-point FFT, 64 triangular mel
filters between 60 and 7800 Hz (HTK mel scale, 2595*log10(1 + f/700)), and
log(x + 1e-6) compression. The front-end is a pure whole-clip transform: a
one-second clip at the defaults produces a (98, 64) feature, a longer clip
more frames. `data.FeatureBank` fits clips of any length to a model.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class WavFormatError(ValueError):
    """Raised when a WAV file is not 16-bit PCM mono at the expected rate."""


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 16000
    window_ms: float = 25.0
    hop_ms: float = 10.0
    n_mels: int = 64
    fmin: float = 60.0
    fmax: float = 7800.0
    fft_size: int = 512
    log_floor: float = 1e-6

    def __post_init__(self):
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError(f"need 0 <= fmin < fmax <= sample_rate/2, got {self.fmin}..{self.fmax}")
        if self.window_samples > self.fft_size:
            raise ValueError(f"window ({self.window_samples} samples) exceeds fft_size {self.fft_size}")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")
        if self.hop_samples < 1:
            raise ValueError("hop must be at least one sample")

    @property
    def window_samples(self) -> int:
        return round(self.sample_rate * self.window_ms / 1000)

    @property
    def hop_samples(self) -> int:
        return round(self.sample_rate * self.hop_ms / 1000)

    @property
    def n_spectrum_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class MelFeature:
    """A frames x mel-bins matrix of log filterbank energies."""

    data: np.ndarray  # (T, n_mels) float32


def frame_count(n_samples: int, cfg: FrontendConfig) -> int:
    return (n_samples - cfg.window_samples) // cfg.hop_samples + 1


def frame_and_window(pcm: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """Slice PCM into hop-spaced frames and apply a periodic Hann window."""
    pcm = np.asarray(pcm, dtype=np.float64)
    if pcm.ndim != 1:
        raise ValueError("expected mono PCM (1-D array)")
    win = cfg.window_samples
    if len(pcm) < win:
        raise ValueError(f"input of {len(pcm)} samples is shorter than one {win}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(pcm, win)[:: cfg.hop_samples]
    return frames * hann_window(win)


@functools.lru_cache(maxsize=8)
def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of n samples (read-only: the cache shares it)."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.setflags(write=False)
    return w


def power_spectrum(frames: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """Magnitude-squared one-sided DFT of each frame, zero-padded to fft_size."""
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=-1)
    return np.abs(spec) ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filters as an (n_mels, fft_size/2 + 1) matrix."""
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_hz = np.arange(cfg.n_spectrum_bins) * cfg.sample_rate / cfg.fft_size
    bank = np.zeros((cfg.n_mels, cfg.n_spectrum_bins))
    for m in range(cfg.n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


def featurize(pcm: np.ndarray, cfg: FrontendConfig = FrontendConfig()) -> MelFeature:
    """Full front-end over the whole clip: framing, power spectrum, mel
    projection, log. Fitting the frames to a model is `data.FeatureBank`'s job."""
    spec = power_spectrum(frame_and_window(pcm, cfg), cfg)
    energies = spec @ mel_filterbank(cfg).T
    return MelFeature(data=np.log(energies + cfg.log_floor).astype(np.float32))


# frames of a 16-bit mono data chunk whose size field holds the streaming
# placeholder 0xFFFFFFFF
_STREAMING_FRAMES = 0xFFFFFFFF // 2


def load_wav(path, expected_rate: int | None = None) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM mono WAV file as float32 in [-1, 1).

    Raises WavFormatError for any other encoding, for a file that ends
    inside its header, mid-sample or before the sample count its header
    declares, or when expected_rate is given and the file's rate differs.
    A data size of 0xFFFFFFFF is the placeholder that streaming writers
    leave when they cannot seek back; such a file is read to its end.
    """
    path = Path(path)
    try:
        wf = wave.open(str(path), "rb")
    except EOFError as e:
        raise WavFormatError(f"{path}: file ends inside the WAV header") from e
    except (OSError, wave.Error) as e:
        raise WavFormatError(f"{path}: {e}") from e
    except RuntimeError as e:  # wave's bare error for a seek past the RIFF chunk's end
        raise WavFormatError(f"{path}: a chunk size in the WAV header runs past the RIFF chunk") from e
    with wf:
        if wf.getcomptype() != "NONE":
            raise WavFormatError(f"{path}: compressed WAV ({wf.getcomptype()}) not supported")
        if wf.getnchannels() != 1:
            raise WavFormatError(f"{path}: expected mono, got {wf.getnchannels()} channels")
        if wf.getsampwidth() != 2:
            raise WavFormatError(f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
        rate = wf.getframerate()
        if expected_rate is not None and rate != expected_rate:
            raise WavFormatError(f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz")
        declared = wf.getnframes()
        # read in pieces: a placeholder or damaged size field claims up to 4 GiB
        raw = b"".join(iter(lambda: wf.readframes(1 << 16), b""))
    if len(raw) % 2:
        raise WavFormatError(f"{path}: audio data ends mid-sample ({len(raw)} bytes of 16-bit PCM)")
    if declared != _STREAMING_FRAMES and len(raw) // 2 < declared:
        raise WavFormatError(f"{path}: audio data holds {len(raw) // 2} samples, "
                             f"its header declares {declared}")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    return pcm, rate


def write_wav(path, pcm: np.ndarray, rate: int) -> None:
    """Write float PCM in [-1, 1] as a 16-bit mono WAV file."""
    samples = np.clip(np.asarray(pcm, dtype=np.float64), -1.0, 1.0)
    ints = np.round(samples * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(ints.tobytes())
