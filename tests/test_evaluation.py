"""Evaluation-harness tests: sweeps, aggregation, bench, report writers."""
import csv
import json
import math

import numpy as np
import pytest

from eebnn import arch, data, evaluation, runtime
from eebnn.evaluation import (SWEEP_CSV_HEADER, accuracy_vs_avg_exit, bench_exits,
                              exit_generalization_table, model_id, per_class_exits,
                              read_records_jsonl, row_from_records, sweep,
                              write_bench_csv, write_curve_csv, write_per_class_csv,
                              write_records_jsonl, write_sweep_csv)


@pytest.fixture(scope="module")
def sw(trained_model, easy_dataset, feature_bank):
    return sweep(trained_model, easy_dataset, bank=feature_bank)


def test_model_id_format(trained_model):
    assert model_id(trained_model) == "quicknet-w16x32x64-b2x2x2-c4-seed3"


def test_sweep_rows_and_invariants(sw, trained_model):
    assert [r.delta for r in sw.rows] == [0.1, 0.25, 0.5, 0.75, 1.0]
    for r in sw.rows:
        assert sum(r.fractions) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= r.accuracy <= 1.0
        assert 1.0 <= r.mean_exit <= 5.0
        expected_mean = sum(f * (i + 1) for i, f in enumerate(r.fractions))
        assert r.mean_exit == pytest.approx(expected_mean, rel=1e-12)
        assert trained_model.exit_costs[0] <= r.mean_macs <= trained_model.total_macs
    # aggregate exit depth cannot grow as the threshold loosens
    means = [r.mean_exit for r in sw.rows]
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_sweep_records_match_rows(sw):
    for r in sw.rows:
        recs = sw.records[r.delta]
        again = row_from_records(r.delta, recs)
        assert again == r
        correct = sum(1 for rec in recs if rec.prediction == rec.label)
        assert r.accuracy == correct / len(recs)


@pytest.mark.parametrize("kind,deltas,temperature", [
    ("entropy", (0.1, 0.25, 0.5, 0.75, 1.0), 1.0),
    ("softmax-confidence", (0.4, 0.5, 0.6, 0.7, 0.9), 2.0),
])
def test_sweep_records_match_early_exit(trained_model, easy_dataset, feature_bank, test_indices,
                                        kind, deltas, temperature):
    sw = sweep(trained_model, easy_dataset, deltas, kind, temperature, bank=feature_bank)
    assert sw.rule_kind == kind
    for d in deltas:
        rule = runtime.DecisionRule(kind, d, temperature)
        for rec, i in zip(sw.records[d], test_indices, strict=True):
            want = runtime.infer_early_exit(trained_model, feature_bank.eval_feature(i), rule,
                                            label=easy_dataset.samples[i].label)
            for field in ("exit_index", "prediction", "confidence", "trail", "macs", "label"):
                assert getattr(rec, field) == getattr(want, field), (kind, d, i, field)
    final = [int(np.argmax(list(runtime.exit_outputs(trained_model, feature_bank.eval_feature(i)))[-1][0]))
             == easy_dataset.samples[i].label for i in test_indices]
    assert sw.baseline_accuracy == sum(final) / len(final)


def test_sweep_validation(trained_model, easy_dataset, feature_bank):
    with pytest.raises(ValueError, match="at least one"):
        sweep(trained_model, easy_dataset, deltas=(), bank=feature_bank)
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(trained_model, easy_dataset, deltas=(0.5, 0.5), bank=feature_bank)
    train_only = data.Dataset(
        samples=tuple(s for s in easy_dataset.samples if s.split == "train"),
        n_classes=easy_dataset.n_classes,
        name="train-only",
    )
    with pytest.raises(data.DataError, match="test split"):
        sweep(trained_model, train_only, bank=None)


def test_row_lookup(sw):
    assert sw.row(0.5).delta == 0.5
    with pytest.raises(KeyError):
        sw.row(0.33)


def test_accuracy_vs_avg_exit_points(sw):
    pts = accuracy_vs_avg_exit(sw)
    assert len(pts) == 5
    for p in pts:
        assert set(p) == {"model", "delta", "mean_exit", "accuracy", "baseline_accuracy"}
        assert p["baseline_accuracy"] == sw.baseline_accuracy
    with pytest.raises(ValueError):
        accuracy_vs_avg_exit([])


def test_per_class_exits_from_records(sw, trained_model, easy_dataset):
    recs = sw.records[0.5]
    stats = per_class_exits(list(recs), easy_dataset.n_classes, 0.5)
    assert stats.counts.shape == (4, 5)
    assert stats.counts.sum() == len(recs)
    assert stats.empty_classes == ()
    for c in range(4):
        n_c = sum(1 for r in recs if r.label == c)
        assert stats.counts[c].sum() == n_c
        np.testing.assert_allclose(stats.fractions[c].sum(), 1.0, atol=1e-12)
        assert 1.0 <= stats.mean_exit(c) <= 5.0


def test_per_class_exits_missing_class(sw, trained_model, easy_dataset):
    recs = [r for r in sw.records[0.5] if r.label != 2]
    stats = per_class_exits(recs, easy_dataset.n_classes, 0.5)
    assert stats.empty_classes == (2,)
    assert np.isnan(stats.fractions[2]).all()
    assert math.isnan(stats.mean_exit(2))


def test_bench_exits_on_feature(trained_model, feature_bank, test_indices):
    feat = feature_bank.eval_feature(test_indices[0])
    rows = bench_exits(trained_model, feat, repeats=5, warmup=1)
    assert [r["exit"] for r in rows] == [1, 2, 3, 4, 5]
    assert [r["macs"] for r in rows] == list(trained_model.exit_costs)
    for r in rows:
        assert r["median_ms"] > 0.0
        assert r["iqr_ms"] >= 0.0
        assert r["repeats"] == 5
    with pytest.raises(ValueError, match="repeats"):
        bench_exits(trained_model, feat, repeats=0)


def test_bench_exits_on_pcm(trained_model, easy_dataset):
    pcm = easy_dataset.samples[0].pcm
    rows = bench_exits(trained_model, pcm, repeats=2, warmup=0)
    assert len(rows) == 5
    assert all(r["median_ms"] > 0.0 for r in rows)


def test_exit_generalization_table(trained_model, easy_dataset, feature_bank):
    table = exit_generalization_table(trained_model, easy_dataset, bank=feature_bank)
    assert len(table["multi_exit"]) == 5
    assert all(0.0 <= a <= 1.0 for a in table["multi_exit"])
    assert table["n_samples"] == 32


def test_write_sweep_csv(sw, tmp_path):
    out = tmp_path / "sweep.csv"
    write_sweep_csv(sw, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 6
    row = lines[1].split(",")
    assert float(row[0]) == 0.1
    assert len(row) == 10


def test_records_jsonl_round_trip(sw, tmp_path):
    out = tmp_path / "records.jsonl"
    write_records_jsonl(out, sw.records, model=sw.model_id, dataset=sw.dataset_id,
                        rule=sw.rule_kind)
    recs = read_records_jsonl(out)
    n_test = len(sw.records[0.1])
    assert len(recs) == 5 * n_test
    keys = {"model", "dataset", "rule", "delta", "sample", "label", "prediction",
            "exit", "confidence", "trail", "macs", "wall_ms"}
    for r in recs:
        assert set(r) == keys
        assert 1 <= r["exit"] <= 5
        assert len(r["trail"]) == r["exit"]
        assert r["rule"] == "entropy"
    # jsonl agrees with the in-memory records
    first = next(r for r in recs if r["delta"] == 0.5 and r["sample"] == 0)
    mem = sw.records[0.5][0]
    assert first["prediction"] == mem.prediction
    assert first["macs"] == mem.macs


def test_write_per_class_csv(sw, trained_model, easy_dataset, tmp_path):
    stats = per_class_exits(list(sw.records[0.5]), easy_dataset.n_classes, 0.5)
    out = tmp_path / "per_class.csv"
    write_per_class_csv(stats, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "n", "frac_exit1", "frac_exit2", "frac_exit3",
                       "frac_exit4", "frac_exit5", "mean_exit"]
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_write_bench_and_curve_csv(sw, trained_model, feature_bank, test_indices, tmp_path):
    feat = feature_bank.eval_feature(test_indices[0])
    bench = bench_exits(trained_model, feat, repeats=2, warmup=0)
    bout = tmp_path / "bench.csv"
    write_bench_csv(bench, bout)
    lines = bout.read_text().strip().splitlines()
    assert lines[0] == "exit,macs,median_ms,iqr_ms,repeats"
    assert len(lines) == 6

    cout = tmp_path / "curve.csv"
    write_curve_csv(accuracy_vs_avg_exit(sw), cout)
    lines = cout.read_text().strip().splitlines()
    assert lines[0] == "model,delta,mean_exit,accuracy,baseline_accuracy"
    assert len(lines) == 6
