"""Adaptive-inference tests: entropy, decision rules, exit loop honesty."""
import math

import numpy as np
import pytest

from eebnn import arch, runtime
from eebnn.runtime import DecisionRule, entropy, infer_early_exit, infer_fixed_exit, temperature_confidence


def test_entropy_known_values():
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-12)
    assert entropy([0.25] * 4) == pytest.approx(math.log(4), rel=1e-12)
    p = [0.7, 0.2, 0.1]
    expected = -sum(q * math.log(q) for q in p)
    assert entropy(p) == pytest.approx(expected, rel=1e-12)


def test_entropy_validates_input():
    with pytest.raises(ValueError, match="sums to"):
        entropy([0.5, 0.4])
    with pytest.raises(ValueError, match="negative"):
        entropy([1.2, -0.2])
    with pytest.raises(ValueError, match="1-d"):
        entropy([[0.5, 0.5]])


def test_temperature_confidence_values():
    p = [0.7, 0.2, 0.1]
    assert temperature_confidence(p, 1.0) == pytest.approx(0.7, rel=1e-12)
    # low temperature sharpens, high temperature flattens
    assert temperature_confidence(p, 0.5) > 0.7
    assert temperature_confidence(p, 4.0) < 0.7
    # zeros stay zero: a one-hot distribution is one-hot at any temperature
    assert temperature_confidence([0.0, 1.0], 3.0) == 1.0
    with pytest.raises(ValueError, match="temperature"):
        temperature_confidence(p, 0.0)


def test_decision_rule_validation_and_boundaries():
    with pytest.raises(ValueError, match="kind"):
        DecisionRule(kind="oracle")
    with pytest.raises(ValueError, match=">= 0"):
        DecisionRule(kind="entropy", threshold=-0.1)
    with pytest.raises(ValueError, match="confidence threshold"):
        DecisionRule(kind="softmax-confidence", threshold=0.0)
    with pytest.raises(ValueError, match="temperature"):
        DecisionRule(temperature=0.0)

    # entropy comparison is strict: a uniform distribution never satisfies ln C
    r = DecisionRule(kind="entropy", threshold=math.log(4))
    u = entropy([0.25] * 4)
    assert not r.satisfied(u)
    assert DecisionRule(kind="entropy", threshold=math.log(4) + 1e-9).satisfied(u)
    # confidence comparison is inclusive
    rc = DecisionRule(kind="softmax-confidence", threshold=0.7)
    assert rc.satisfied(0.7)
    assert not rc.satisfied(0.69999)


def test_delta_zero_routes_to_last_exit(trained_model, feature_bank, test_indices):
    rule = DecisionRule(kind="entropy", threshold=0.0)
    for i in test_indices[:10]:
        rec = infer_early_exit(trained_model, feature_bank.eval_feature(i), rule)
        assert rec.exit_index == 5
        assert len(rec.trail) == 5
        assert rec.macs == trained_model.total_macs


def test_delta_above_ln_c_routes_to_first_exit(trained_model, feature_bank, test_indices):
    rule = DecisionRule(kind="entropy", threshold=math.log(4) + 0.01)
    for i in test_indices[:10]:
        rec = infer_early_exit(trained_model, feature_bank.eval_feature(i), rule)
        assert rec.exit_index == 1
        assert rec.trail == (rec.confidence,)
        assert rec.macs == trained_model.exit_costs[0]


def test_exit_index_non_increasing_in_delta(trained_model, feature_bank, test_indices):
    grid = (0.1, 0.25, 0.5, 0.75, 1.0)
    for i in test_indices[:25]:
        feat = feature_bank.eval_feature(i)
        exits = [infer_early_exit(trained_model, feat, DecisionRule("entropy", d)).exit_index
                 for d in grid]
        assert all(b <= a for a, b in zip(exits, exits[1:])), (i, exits)


def test_trail_prefix_consistency(trained_model, feature_bank, test_indices):
    """The trail at a smaller delta is a prefix of the trail at delta = 0."""
    feat = feature_bank.eval_feature(test_indices[0])
    full = infer_early_exit(trained_model, feat, DecisionRule("entropy", 0.0))
    part = infer_early_exit(trained_model, feat, DecisionRule("entropy", 0.75))
    assert part.trail == full.trail[: part.exit_index]
    # everything before the chosen exit failed the rule; the chosen one passed
    assert all(c >= 0.75 for c in part.trail[:-1])
    if part.exit_index < 5:
        assert part.trail[-1] < 0.75


def test_early_exit_macs_match_consumed_work(trained_model, feature_bank, test_indices):
    feat = feature_bank.eval_feature(test_indices[1])
    rec = infer_early_exit(trained_model, feat, DecisionRule("entropy", 0.75))
    k = rec.exit_index
    expected = (trained_model.stem_macs
                + sum(trained_model.block_macs[: trained_model.placements[k - 1]])
                + sum(h.macs for h in trained_model.exits[:k]))
    assert rec.macs == expected


def test_early_exit_prediction_matches_chosen_head(trained_model, feature_bank, test_indices):
    feat = feature_bank.eval_feature(test_indices[2])
    rec = infer_early_exit(trained_model, feat, DecisionRule("entropy", 0.75))
    dist = list(runtime.exit_outputs(trained_model, feat))[rec.exit_index - 1][0]
    assert rec.prediction == int(np.argmax(dist))
    assert rec.confidence == pytest.approx(entropy(dist), rel=1e-12)


def test_softmax_confidence_rule_runs(trained_model, feature_bank, test_indices):
    rule = DecisionRule(kind="softmax-confidence", threshold=0.9, temperature=1.0)
    rec = infer_early_exit(trained_model, feature_bank.eval_feature(test_indices[4]), rule)
    assert 1 <= rec.exit_index <= 5
    if rec.exit_index < 5:
        assert rec.confidence >= 0.9
    # an impossible threshold forces the fallback exit
    hard = DecisionRule(kind="softmax-confidence", threshold=1.0, temperature=1.0)
    rec2 = infer_early_exit(trained_model, feature_bank.eval_feature(test_indices[4]), hard)
    assert rec2.exit_index == 5 or rec2.confidence == 1.0


def test_early_exit_stops_work_at_chosen_exit(trained_model, feature_bank, test_indices, monkeypatch):
    ran = []
    for b, blk in enumerate(trained_model.blocks, start=1):
        monkeypatch.setattr(blk, "forward", lambda x, m, b=b, f=blk.forward: ran.append(b) or f(x, m))
    for h, head in enumerate(trained_model.exits, start=1):
        monkeypatch.setattr(head, "forward", lambda x, m, h=h, f=head.forward: ran.append(-h) or f(x, m))
    feat = feature_bank.eval_feature(test_indices[0])
    rec = infer_early_exit(trained_model, feat, DecisionRule("entropy", float("inf")))
    assert rec.exit_index == 1
    p1 = trained_model.placements[0]
    assert ran == [*range(1, p1 + 1), -1]  # blocks past exit 1 and later heads never ran


def test_fixed_exit_stops_work_at_chosen_exit(trained_model, feature_bank, test_indices, monkeypatch):
    ran = []
    for b, blk in enumerate(trained_model.blocks, start=1):
        monkeypatch.setattr(blk, "forward", lambda x, m, b=b, f=blk.forward: ran.append(b) or f(x, m))
    for h, head in enumerate(trained_model.exits, start=1):
        monkeypatch.setattr(head, "forward", lambda x, m, h=h, f=head.forward: ran.append(-h) or f(x, m))
    feat = feature_bank.eval_feature(test_indices[0])
    for k in range(1, 6):
        ran.clear()
        rec = infer_fixed_exit(trained_model, feat, k)
        assert rec.exit_index == k
        pk = trained_model.placements[k - 1]
        assert ran == [*range(1, pk + 1), -k]  # later blocks and every other head never ran
