"""Per-sample adaptive inference: run exits in order, stop when confident.

The heads are read per sample in two places only, both on the lazy trunk of
`arch.Model.exit_activations`: `exit_outputs` runs one pass (batch size
one) and yields each exit head's class distribution with the MACs and
milliseconds spent so far, and `infer_fixed_exit` runs the trunk to one
exit and that head alone. `decide` is the one exit decision: it consumes
the outputs of `exit_outputs` in order and the sample leaves at the first
exit that satisfies the rule, otherwise at the last exit. Fed the lazy
pass, work stops at the chosen exit; fed a stored all-exit pass, it gives
the same record for any threshold without re-running the network. Reported
MACs count exactly the work up to the chosen exit: the stem, every block
executed, and every head evaluated along the way.

Two rules are available:

* entropy: exit when the distribution's entropy (nats) is strictly below
  the threshold delta. Entropy ranges over [0, ln C], so delta = 0 disables
  early exiting and delta > ln C forces the first exit.
* softmax-confidence: exit when the maximum temperature-scaled softmax
  probability is at least the threshold. Temperature rescales in logit
  space: probabilities p become softmax(log(p) / T).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import arch, layers

RULE_KINDS = ("entropy", "softmax-confidence")


def entropy(p) -> float:
    """Shannon entropy in nats with 0 ln 0 = 0; validates the distribution."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"expected a 1-d distribution, got shape {p.shape}")
    if np.any(p < 0) or not np.isfinite(p).all():
        raise ValueError("distribution has negative or non-finite entries")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"distribution sums to {float(p.sum())}, not 1")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def temperature_confidence(p, temperature: float) -> float:
    """Max softmax probability after dividing logits by the temperature.

    Works from the distribution alone: log p recovers the logits up to the
    additive constant that softmax ignores. Zero entries stay zero in the
    rescaled distribution (they correspond to -inf logits).
    """
    p = np.asarray(p, dtype=np.float64)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    nz = p > 0
    logits = np.full(p.shape, -np.inf)
    logits[nz] = np.log(p[nz]) / temperature
    return float(layers.softmax(logits).max())


@dataclass(frozen=True)
class DecisionRule:
    """Exit criterion: entropy < threshold, or max softmax >= threshold."""

    kind: str = "entropy"
    threshold: float = 0.5
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"rule kind must be one of {RULE_KINDS}, got {self.kind!r}")
        if self.kind == "entropy" and not self.threshold >= 0:
            raise ValueError("entropy threshold must be >= 0")
        if self.kind == "softmax-confidence" and not 0 < self.threshold <= 1:
            raise ValueError("confidence threshold must be in (0, 1]")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    def confidence(self, p) -> float:
        if self.kind == "entropy":
            return entropy(p)
        return temperature_confidence(p, self.temperature)

    def satisfied(self, confidence: float) -> bool:
        if self.kind == "entropy":
            return confidence < self.threshold
        return confidence >= self.threshold


@dataclass(frozen=True)
class ExitRecord:
    """Outcome of one adaptive inference."""

    exit_index: int  # 1-based; first exit satisfying the rule, else the last
    prediction: int
    confidence: float  # rule statistic at the chosen exit
    trail: tuple[float, ...]  # statistic at every exit evaluated, length = exit_index
    macs: int  # compute spent up to and including the chosen exit
    wall_ms: float  # from the start of the pass to the end of the chosen head
    label: int | None = None


def exit_outputs(model: arch.Model, feature):
    """Lazily yield (distribution, cumulative MACs, cumulative ms) per exit.

    Cumulative cost covers every head evaluated so far; the time runs from
    the start of the pass to the end of that exit's head.
    """
    t0 = time.perf_counter()
    heads_before = 0
    for head, cost, x in zip(model.exits, model.exit_costs, model.exit_activations(feature)):
        dist = arch.exit_distribution(head, x)
        yield dist, cost + heads_before, 1000.0 * (time.perf_counter() - t0)
        heads_before += head.macs


def decide(outputs, rule: DecisionRule, label: int | None = None) -> ExitRecord:
    """Exit at the first output that satisfies the rule, else at the last.

    Consumes `outputs` (from `exit_outputs`) only up to the chosen exit.
    """
    trail = []
    for dist, macs, ms in outputs:
        trail.append(rule.confidence(dist))
        if rule.satisfied(trail[-1]):
            break
    return ExitRecord(
        exit_index=len(trail),
        prediction=int(np.argmax(dist)),
        confidence=trail[-1],
        trail=tuple(trail),
        macs=macs,
        wall_ms=ms,
        label=label,
    )


def infer_early_exit(model: arch.Model, feature, rule: DecisionRule,
                     label: int | None = None) -> ExitRecord:
    """Algorithm: evaluate exits in order, return at the first confident one."""
    return decide(exit_outputs(model, feature), rule, label)


def infer_fixed_exit(model: arch.Model, feature, exit_index: int,
                     label: int | None = None) -> ExitRecord:
    """Unconditional exit at the given index (baseline for per-exit tables).

    Runs the trunk to that exit and only its head: the exit's standalone cost.
    """
    t0 = time.perf_counter()
    if not 1 <= exit_index <= arch.N_EXITS:
        raise ValueError(f"exit index {exit_index} out of range 1..{arch.N_EXITS}")
    x = next(itertools.islice(model.exit_activations(feature), exit_index - 1, None))
    dist = arch.exit_distribution(model.exits[exit_index - 1], x)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    h = entropy(dist)
    return ExitRecord(
        exit_index=exit_index,
        prediction=int(np.argmax(dist)),
        confidence=h,
        trail=(h,),
        macs=model.exit_costs[exit_index - 1],
        wall_ms=wall_ms,
        label=label,
    )
