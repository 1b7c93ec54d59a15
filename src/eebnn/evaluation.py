"""Evaluation harness: threshold sweeps, trade-off curves, per-class exit
histograms, per-exit accuracy tables, and latency micro-benchmarks.

Every aggregate is computed from per-sample ExitRecords that are kept (and
can be persisted as JSON lines), so any figure can be re-derived without
re-running inference. CSV headers are fixed:

* sweep: delta,accuracy,mean_exit,frac_exit1,...,frac_exit5,mean_macs,mean_ms
* per-class: class,n,frac_exit1,...,frac_exit5,mean_exit
* bench: exit,macs,median_ms,iqr_ms,repeats
* curve: model,delta,mean_exit,accuracy,baseline_accuracy
* history: epoch,loss,exit_loss1,...,exit_loss5,train_acc1,...,train_acc5,
  test_acc1,...,test_acc5

Host wall-clock numbers depend on the machine and the BLAS build; they are
comparable across exits of one run, not across devices.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import arch, data, frontend, runtime, training

DEFAULT_DELTAS = (0.1, 0.25, 0.5, 0.75, 1.0)

SWEEP_CSV_HEADER = (
    "delta,accuracy,mean_exit,frac_exit1,frac_exit2,frac_exit3,frac_exit4,frac_exit5,"
    "mean_macs,mean_ms"
)


def model_id(model: arch.Model) -> str:
    s = model.spec
    widths = "x".join(str(w) for w in s.widths)
    blocks = "x".join(str(b) for b in s.blocks)
    return f"{s.family}-w{widths}-b{blocks}-c{s.n_classes}-seed{model.seed}"


@dataclass(frozen=True)
class SweepRow:
    delta: float
    accuracy: float
    mean_exit: float
    fractions: tuple[float, ...]
    mean_macs: float
    mean_ms: float


@dataclass(frozen=True)
class SweepResult:
    model_id: str
    dataset_id: str
    rule_kind: str
    rows: tuple[SweepRow, ...]
    records: dict[float, tuple[runtime.ExitRecord, ...]]
    baseline_accuracy: float  # unconditional final exit on the same samples

    def row(self, delta: float) -> SweepRow:
        for r in self.rows:
            if r.delta == delta:
                return r
        raise KeyError(f"no row for delta {delta}")


def row_from_records(delta: float, records) -> SweepRow:
    """Aggregate one threshold's records; the only way rows are built."""
    n = len(records)
    if n == 0:
        raise data.DataError("no records to aggregate")
    correct = sum(1 for r in records if r.label is not None and r.prediction == r.label)
    counts = [0] * arch.N_EXITS
    for r in records:
        counts[r.exit_index - 1] += 1
    fractions = tuple(c / n for c in counts)
    return SweepRow(
        delta=delta,
        accuracy=correct / n,
        mean_exit=sum(r.exit_index for r in records) / n,
        fractions=fractions,
        mean_macs=sum(r.macs for r in records) / n,
        mean_ms=sum(r.wall_ms for r in records) / n,
    )


def held_out_features(model, dataset, bank=None):
    """The feature bank and the test-split indices; DataError if there are none."""
    if bank is None:
        bank = data.FeatureBank(dataset, n_frames=model.spec.input_shape[0])
    idx = [i for i, s in enumerate(dataset.samples) if s.split == "test"]
    if not idx:
        raise data.DataError("dataset has no test split")
    return bank, idx


def held_out_records(model: arch.Model, dataset: data.Dataset, rule: runtime.DecisionRule,
                     fixed_exit: int | None = None,
                     bank: data.FeatureBank | None = None) -> tuple[runtime.ExitRecord, ...]:
    """One record per test clip, in order.

    Each clip runs `runtime.infer_early_exit`, so its pass stops at the exit
    the rule chooses, or `runtime.infer_fixed_exit` when `fixed_exit` is given.
    """
    bank, idx = held_out_features(model, dataset, bank)

    def infer(i):
        feat, label = bank.eval_feature(i), dataset.samples[i].label
        if fixed_exit is None:
            return runtime.infer_early_exit(model, feat, rule, label=label)
        return runtime.infer_fixed_exit(model, feat, fixed_exit, label=label)

    return tuple(infer(i) for i in idx)


def sweep(model: arch.Model, dataset: data.Dataset, deltas=DEFAULT_DELTAS,
          rule_kind: str = "entropy", temperature: float = 1.0,
          bank: data.FeatureBank | None = None) -> SweepResult:
    """One all-exit pass per test clip, decided at every threshold, plus aggregates."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValueError("need at least one threshold")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"thresholds must be strictly increasing: {deltas}")
    rules = [runtime.DecisionRule(kind=rule_kind, threshold=d, temperature=temperature)
             for d in deltas]
    bank, idx = held_out_features(model, dataset, bank)
    records: dict[float, list] = {d: [] for d in deltas}
    base_correct = 0
    for i in idx:
        label = dataset.samples[i].label
        outputs = list(runtime.exit_outputs(model, bank.eval_feature(i)))
        for rule in rules:
            records[rule.threshold].append(runtime.decide(outputs, rule, label))
        base_correct += int(np.argmax(outputs[-1][0])) == label  # final exit, same pass
    rows = tuple(row_from_records(d, records[d]) for d in deltas)
    return SweepResult(
        model_id=model_id(model),
        dataset_id=dataset.name,
        rule_kind=rule_kind,
        rows=rows,
        records={d: tuple(rs) for d, rs in records.items()},
        baseline_accuracy=base_correct / len(idx),
    )


def accuracy_vs_avg_exit(sweeps) -> list[dict]:
    """Long-format trade-off curve: one point per (sweep, threshold)."""
    if isinstance(sweeps, SweepResult):
        sweeps = [sweeps]
    if not sweeps:
        raise ValueError("need at least one sweep")
    out = []
    for sw in sweeps:
        for r in sw.rows:
            out.append(
                {
                    "model": sw.model_id,
                    "delta": r.delta,
                    "mean_exit": r.mean_exit,
                    "accuracy": r.accuracy,
                    "baseline_accuracy": sw.baseline_accuracy,
                }
            )
    return out


@dataclass(frozen=True)
class PerClassExitStats:
    delta: float
    counts: np.ndarray  # (n_classes, N_EXITS) int
    fractions: np.ndarray  # rows sum to 1; NaN rows for absent classes
    empty_classes: tuple[int, ...]

    def mean_exit(self, cls: int) -> float:
        row = self.fractions[cls]
        if np.isnan(row).any():
            return float("nan")
        return float(np.sum(row * np.arange(1, arch.N_EXITS + 1)))


def per_class_exits(records, n_classes: int, delta: float) -> PerClassExitStats:
    """Exit histogram per class from one threshold's records.

    Classes absent from the records get NaN rows and are listed in
    empty_classes rather than being invented.
    """
    counts = np.zeros((n_classes, arch.N_EXITS), dtype=int)
    for r in records:
        counts[r.label, r.exit_index - 1] += 1
    totals = counts.sum(axis=1)
    fractions = np.full(counts.shape, np.nan)
    present = totals > 0
    fractions[present] = counts[present] / totals[present, None]
    empty = tuple(int(c) for c in np.flatnonzero(~present))
    return PerClassExitStats(delta=float(delta), counts=counts, fractions=fractions,
                             empty_classes=empty)


def bench_exits(model: arch.Model, signal, repeats: int = 30, warmup: int = 5,
                fe_cfg: frontend.FrontendConfig | None = None) -> list[dict]:
    """Median/IQR latency of each fixed exit (`runtime.infer_fixed_exit`).

    `signal` may be raw PCM (1-d), in which case each timed run includes the
    front-end and crops or pads the features to the model's frame count as
    `data.FeatureBank` does, or a precomputed feature (2-d) to time the
    network alone.
    Repeats are interleaved round-robin across exits so clock drift hits all
    exits equally.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    signal = np.asarray(signal)
    include_frontend = signal.ndim == 1
    fe_cfg = fe_cfg or frontend.FrontendConfig()

    def run(exit_index):
        t0 = time.perf_counter()
        if include_frontend:
            feat = frontend.featurize(signal, fe_cfg).data.astype(np.float64)
            feat = data.fit_frames(feat, model.spec.input_shape[0], fe_cfg.log_floor)
        else:
            feat = signal
        runtime.infer_fixed_exit(model, feat, exit_index)
        return 1000.0 * (time.perf_counter() - t0)

    times: list[list[float]] = [[] for _ in range(arch.N_EXITS)]
    for rep in range(warmup + repeats):
        for e in range(1, arch.N_EXITS + 1):
            ms = run(e)
            if rep >= warmup:
                times[e - 1].append(ms)
    out = []
    for e in range(1, arch.N_EXITS + 1):
        ts = times[e - 1]
        if len(ts) >= 2:
            q1, _, q3 = statistics.quantiles(ts, n=4)
            iqr = q3 - q1
        else:
            iqr = 0.0
        out.append(
            {
                "exit": e,
                "macs": model.exit_costs[e - 1],
                "median_ms": statistics.median(ts),
                "iqr_ms": iqr,
                "repeats": repeats,
            }
        )
    return out


def exit_generalization_table(model: arch.Model, dataset: data.Dataset,
                              bank: data.FeatureBank | None = None) -> dict:
    """Unconditional accuracy of every exit over the test split."""
    bank, idx = held_out_features(model, dataset, bank)
    labels = np.array([dataset.samples[i].label for i in idx])
    multi = training.exit_accuracies(model, bank, idx, labels).tolist()
    return {
        "multi_exit": multi,
        "n_samples": len(idx),
        "model": model_id(model),
        "dataset": dataset.name,
    }


# --- persistence -------------------------------------------------------------------


def write_sweep_csv(sw: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_CSV_HEADER.split(","))
        for r in sw.rows:
            w.writerow(
                [r.delta, r.accuracy, r.mean_exit, *r.fractions, r.mean_macs, r.mean_ms]
            )


def write_records_jsonl(path, records_by_delta, *, model: str, dataset: str, rule: str) -> None:
    """One JSON object per (threshold, sample) inference, led by the three tags."""
    with open(path, "w") as fh:
        for d in sorted(records_by_delta):
            for i, r in enumerate(records_by_delta[d]):
                fh.write(
                    json.dumps(
                        {
                            "model": model,
                            "dataset": dataset,
                            "rule": rule,
                            "delta": d,
                            "sample": i,
                            "label": r.label,
                            "prediction": r.prediction,
                            "exit": r.exit_index,
                            "confidence": r.confidence,
                            "trail": list(r.trail),
                            "macs": r.macs,
                            "wall_ms": r.wall_ms,
                        }
                    )
                    + "\n"
                )


def read_records_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_per_class_csv(stats: PerClassExitStats, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["class", "n", *(f"frac_exit{e}" for e in range(1, arch.N_EXITS + 1)),
                    "mean_exit"])
        for c in range(stats.counts.shape[0]):
            n = int(stats.counts[c].sum())
            fr = ["" if np.isnan(v) else v for v in stats.fractions[c]]
            me = stats.mean_exit(c)
            w.writerow([c, n, *fr, "" if np.isnan(me) else me])


def write_bench_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["exit", "macs", "median_ms", "iqr_ms", "repeats"])
        for r in rows:
            w.writerow([r["exit"], r["macs"], r["median_ms"], r["iqr_ms"], r["repeats"]])


def write_curve_csv(points: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "delta", "mean_exit", "accuracy", "baseline_accuracy"])
        for p in points:
            w.writerow([p["model"], p["delta"], p["mean_exit"], p["accuracy"],
                        p["baseline_accuracy"]])


def write_history_csv(history: list[dict], path) -> None:
    """One row per training epoch of `training.train_loop`'s history."""
    exits = range(1, arch.N_EXITS + 1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", *(f"{col}{e}" for col in ("exit_loss", "train_acc", "test_acc")
                                       for e in exits)])
        for r in history:
            w.writerow([r["epoch"], r["loss"], *r["exit_losses"], *r["train_acc"], *r["test_acc"]])
