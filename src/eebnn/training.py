"""Joint multi-exit training: summed cross-entropy, Adam, and Bop.

All exits train on every sample; no early-exit rule is consulted here. The
loss is a weighted sum of per-exit cross-entropies (unit weights by default),
averaged over the batch.

Two optimizer settings, built from two in-place updates of one array each
(`adam_update`, `bop_update`) that `Optimizer` applies slot by slot, a slot
holding one parameter with its moments:

* "adam": Adam on every parameter, including the latent weights behind the
  binary layers (their binarized values follow the latent sign).
* "bop": Bop on the binary weights (stored as exact ±1; an exponential
  moving average of the raw gradient flips a weight when it exceeds the
  threshold with matching sign) and Adam on everything real-valued.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import arch, data, layers

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7

OPTIMIZERS = ("adam", "bop")

# Clips per batch in exit_accuracies. Eval mode is per-sample, so this sets
# only speed: on the toy quicknet fixture a clip took 1.77 ms at 32, 1.58 at
# 16, 1.50 at 8, 1.55 at 4 and 1.79 at 1 (one BLAS thread, 2-vCPU host).
EVAL_BATCH_SIZE = 8


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; training aborted."""


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "bop"
    lr: float = 0.001
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0
    exit_weights: tuple[float, ...] = (1.0,) * arch.N_EXITS
    bop_gamma: float = 1e-4
    bop_tau: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "exit_weights", tuple(float(w) for w in self.exit_weights))
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if len(self.exit_weights) != arch.N_EXITS:
            raise ValueError(f"need {arch.N_EXITS} exit weights, got {len(self.exit_weights)}")
        if any(not w >= 0 for w in self.exit_weights) or not any(w > 0 for w in self.exit_weights):
            raise ValueError("exit weights must be non-negative with at least one positive")
        if not 0 < self.bop_gamma <= 1:
            raise ValueError("bop gamma must be in (0, 1]")
        if not self.bop_tau > 0:
            raise ValueError("bop tau must be positive")


# --- optimizers -----------------------------------------------------------------


def adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, lr: float) -> None:
    """Adam step `t` (from 1) on one array, in place; float64 moments, `p` keeps its dtype."""
    g = np.asarray(g, dtype=np.float64)
    m += (1 - ADAM_BETA1) * (g - m)
    v += (1 - ADAM_BETA2) * (g * g - v)
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    p -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)


def bop_update(w: np.ndarray, g: np.ndarray, m: np.ndarray, gamma: float, tau: float) -> None:
    """One Bop update on one ±1 array: momentum accumulate, then sign flips, in place.

    A weight flips only when its momentum magnitude exceeds tau and the
    momentum sign agrees with the weight sign (gradient pushing against the
    current value).
    """
    g = np.asarray(g, dtype=np.float64)
    m += gamma * (g - m)
    flip = (np.abs(m) > tau) & ((m > 0) == (w > 0))
    w[flip] = -w[flip]


class Optimizer:
    """One slot per parameter: the array, its gradient array (which each backward
    overwrites), a float64 first moment, and Adam's second moment or None for Bop."""

    def __init__(self, model: arch.Model, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.slots = []
        for _, lay, pname, arr, is_binary in model.named_params():
            bop = is_binary and cfg.optimizer == "bop"
            if bop:
                arr[...] = layers.binarized(arr)  # Bop keeps weights exactly ±1
            v = None if bop else np.zeros(arr.shape)
            self.slots.append((arr, lay.grads[pname], np.zeros(arr.shape), v))

    def step(self) -> None:
        self.t += 1
        for arr, g, m, v in self.slots:
            if v is None:
                bop_update(arr, g, m, self.cfg.bop_gamma, self.cfg.bop_tau)
            else:
                adam_update(arr, g, m, v, self.t, self.cfg.lr)


# --- training loop ----------------------------------------------------------------


def _batch_losses(logits: list[np.ndarray], labels: np.ndarray,
                  weights) -> tuple[float, list[float], list[np.ndarray]]:
    """Per-exit batch-mean losses plus logit gradients of the weighted sum."""
    n = labels.shape[0]
    rows = np.arange(n)
    exit_losses, dlogits = [], []
    for w, lg in zip(weights, logits):
        p = layers.softmax(lg)
        exit_losses.append(float(np.mean(-np.log(np.maximum(p[rows, labels], PROB_FLOOR)))))
        d = p.copy()
        d[rows, labels] -= 1.0
        dlogits.append(w * d / n)
    total = float(sum(w * l for w, l in zip(weights, exit_losses)))
    return total, exit_losses, dlogits


def exit_accuracies(model: arch.Model, bank: data.FeatureBank, indices, labels) -> np.ndarray:
    """Per-exit accuracy over the given samples (eval mode, batched).

    Eval mode is per-sample, so the batch size changes only speed and
    memory; small batches keep the im2col buffers in cache.
    """
    labels = np.asarray(labels)
    correct = np.zeros(arch.N_EXITS)
    mode = layers.Mode()
    for lo in range(0, len(indices), EVAL_BATCH_SIZE):
        idx = indices[lo : lo + EVAL_BATCH_SIZE]
        xb = bank.eval_batch(idx)
        yb = labels[lo : lo + EVAL_BATCH_SIZE]
        logits = model.forward_train(xb, mode)
        for e, lg in enumerate(logits):
            correct[e] += int(np.sum(np.argmax(lg, axis=1) == yb))
    return correct / max(len(indices), 1)


def train_loop(model: arch.Model, dataset: data.Dataset, cfg: TrainConfig,
               bank: data.FeatureBank | None = None, progress=None) -> list[dict]:
    """Train in place; returns one history record per epoch.

    Each record holds the epoch's mean joint loss, the per-exit loss split,
    and per-exit train/test accuracies measured after the epoch. Features
    come from `bank`, by default the default front-end's.
    """
    if bank is None:
        bank = data.FeatureBank(dataset, n_frames=model.spec.input_shape[0])
    train_idx = dataset.indices("train")
    test_idx = dataset.indices("test")
    if cfg.epochs > 0 and not train_idx:
        raise data.DataError("dataset has no training split")
    labels = np.array([s.label for s in dataset.samples])
    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(model, cfg) if cfg.epochs > 0 else None  # zero epochs must not touch the model
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_idx))
        sum_loss = 0.0
        sum_exit = np.zeros(arch.N_EXITS)
        n_batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            chosen = [train_idx[j] for j in order[lo : lo + cfg.batch_size]]
            xb = bank.train_batch(chosen, rng)
            yb = labels[chosen]
            logits = model.forward_train(xb, layers.Mode(train=True))
            loss, exit_losses, dlogits = _batch_losses(logits, yb, cfg.exit_weights)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch {n_batches + 1}; "
                    f"per-exit losses {exit_losses}"
                )
            model.backward_train(dlogits)
            opt.step()
            sum_loss += loss
            sum_exit += exit_losses
            n_batches += 1
        record = {
            "epoch": epoch,
            "loss": sum_loss / n_batches,
            "exit_losses": list(sum_exit / n_batches),
            "train_acc": exit_accuracies(model, bank, train_idx, labels[train_idx]).tolist(),
            "test_acc": exit_accuracies(model, bank, test_idx, labels[test_idx]).tolist()
            if test_idx
            else [float("nan")] * arch.N_EXITS,
            "seconds": time.perf_counter() - t0,
        }
        history.append(record)
        if progress is not None:
            progress(record)
    return history
