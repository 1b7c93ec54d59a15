"""Every correctness check of the benchmark rejects a deliberately corrupted output."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import eebnn
import workloads
from eebnn import arch, evaluation, runtime


@pytest.fixture(scope="module")
def stream_results():
    """A model and four (feature, record) results straight from the program."""
    wl = _stream(arch.build(arch.toy_spec("quicknet", n_classes=workloads.N_CLASSES), seed=7))
    results = []
    for _ in range(4):
        call, _ = wl.prepare()
        results.append(call())
    return wl.model, results


def _stream(model):
    wl = workloads.Stream(eebnn, seed=3)
    wl.make_inputs()
    wl.model = model
    wl.rule = runtime.DecisionRule(threshold=workloads.DELTA)
    return wl


def _checked(model, results):
    wl = _stream(model)
    for r in results:
        wl.record(r, 0.01, False)
    return wl.check()


def test_stream_check_accepts_the_program_output(stream_results):
    assert _checked(*stream_results) == (4, 0, [])


@pytest.mark.parametrize("corrupt", [
    lambda r: dict(exit_index=r.exit_index % 5 + 1),
    lambda r: dict(macs=r.macs + 1),
    lambda r: dict(prediction=(r.prediction + 1) % workloads.N_CLASSES),
    lambda r: dict(trail=r.trail[:-1] + (r.trail[-1] + 1e-12,)),
])
def test_stream_check_rejects_corrupted_record(stream_results, corrupt):
    model, results = stream_results
    feat, good = results[1]
    bad = dataclasses.replace(good, **corrupt(good))
    attempted, failed, msgs = _checked(model, [results[0], (feat, bad), *results[2:]])
    assert (attempted, failed) == (4, 1) and msgs[0].startswith("clip 1:")


def test_expected_decision_stops_at_first_confident_exit():
    flat = np.full(4, 0.25)  # entropy ln 4 > 0.5
    sure = np.array([0.97, 0.01, 0.01, 0.01])  # entropy < 0.5
    d = workloads.expected_decision([flat, flat, sure, flat, flat], 0.5,
                                    exit_costs=(10, 20, 30, 40, 50), head_macs=(1, 2, 3, 4, 5))
    assert d["exit_index"] == 3 and d["prediction"] == 0 and len(d["trail"]) == 3
    assert d["macs"] == 30 + 1 + 2


def _sweep(exits_per_delta, labels, preds, baseline):
    records = {}
    for d, exits in zip(workloads.SWEEP_DELTAS, exits_per_delta):
        records[d] = tuple(
            runtime.ExitRecord(exit_index=e, prediction=p, confidence=0.1, trail=(0.1,) * e,
                               macs=100 * e, wall_ms=1.0, label=y)
            for e, p, y in zip(exits, preds, labels))
    rows = tuple(evaluation.row_from_records(d, rs) for d, rs in records.items())
    return evaluation.SweepResult("m", "d", "entropy", rows, records, baseline)


def _offline_op(exits_per_delta, baseline=1.0, table_exit5=1.0):
    sw = _sweep(exits_per_delta, labels=[0, 1], preds=[0, 1], baseline=baseline)
    table = {"multi_exit": [0.5, 0.5, 0.5, 0.5, table_exit5], "n_samples": 2}
    return {"n": 2, "s": 1.0, "traced": False, "sweep": sw, "table": table}


MONOTONE = [[5, 4], [4, 4], [3, 2], [2, 2], [1, 1]]


def test_offline_check_accepts_consistent_sweep():
    wl = workloads.OfflineEval(eebnn, seed=0)
    wl.ops = [_offline_op(MONOTONE), _offline_op(MONOTONE)]
    assert wl.check() == (4, 0, [])


def test_offline_check_rejects_exit_rising_with_delta():
    wl = workloads.OfflineEval(eebnn, seed=0)
    wl.ops = [_offline_op([[5, 4], [4, 4], [3, 5], [2, 2], [1, 1]])]
    attempted, failed, msgs = wl.check()
    assert (attempted, failed) == (2, 1) and "increase" in msgs[0]


def test_offline_check_rejects_baseline_disagreeing_with_float_route():
    wl = workloads.OfflineEval(eebnn, seed=0)
    wl.ops = [_offline_op(MONOTONE, baseline=1.0, table_exit5=0.5)]
    assert wl.check()[1] == 2


def test_offline_check_rejects_fractions_not_summing_to_one():
    wl = workloads.OfflineEval(eebnn, seed=0)
    op = _offline_op(MONOTONE)
    sw = op["sweep"]
    bad_row = dataclasses.replace(sw.rows[0], fractions=(0.5, 0.0, 0.0, 0.0, 0.0))
    op["sweep"] = dataclasses.replace(sw, rows=(bad_row,) + sw.rows[1:])
    wl.ops = [op]
    assert wl.check()[1] == 2


def _train_op(losses, param=1.0):
    model = SimpleNamespace(named_params=lambda: [("p", None, "w", np.array([param]), False)])
    history = [{"loss": x, "exit_losses": [x / 5] * 5, "train_acc": [0.2] * 5,
                "test_acc": [0.2] * 5} for x in losses]
    return {"n": 10, "s": 1.0, "traced": False, "model": model, "history": history}


@pytest.mark.parametrize("losses, param, ok", [
    ([9.0, 8.0], 1.0, True),
    ([9.0, 9.5], 1.0, False),
    ([9.0, math.nan], 1.0, False),
    ([9.0, 8.0], math.inf, False),
])
def test_train_check(losses, param, ok):
    wl = workloads.Train(eebnn, seed=0)
    wl.ops = [_train_op(losses, param)]
    assert wl.check()[1] == (0 if ok else 10)
