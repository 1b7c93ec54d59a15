"""Which callables of the package the traced run wraps, and the per-layer
metrics computed from their spans.

Names follow `<module>.<callable>.<stat>`; "per sample" divides by the
workload's unit (clips decided, test clips evaluated, or training samples).
Every metric is always reported: a callable that was never called reads 0,
and a callable that no longer exists reads 0 and is listed as absent.
"""

from __future__ import annotations

import spans

N_BLOCKS = 6  # blocks of the toy quicknet spec
N_EXITS = 5

TRAIN_LAYERS = ("BinConv2d", "BatchNorm", "RealConv2d", "ExitHead", "Binarize")


def _conv_macs(tracer, args, result):
    x, _, geom = args[:3]
    tracer.counters["conv_macs"] += geom.macs(x.shape[0], x.shape[1])


def _early_exit(tracer, args, rec):
    model = args[0]
    c = tracer.counters
    c[f"exit{rec.exit_index}"] += 1
    c["early_exits"] += 1
    c["heads"] += len(rec.trail)
    c["early_exit_macs"] += rec.macs
    c["wasted_head_macs"] += sum(h.macs for h in model.exits[: rec.exit_index - 1])


def _fixed_exit(tracer, args, rec):
    tracer.counters["heads"] += 1


# (module, dotted attribute, hook) wrapped at module or class level.
MODULE_PATCHES = (
    ("frontend", "featurize", None),
    ("data", "FeatureBank.eval_feature", None),
    ("data", "FeatureBank.train_feature", None),
    ("data", "FeatureBank.train_batch", None),
    ("modelio", "load_model", None),
    ("bitops", "binary_conv2d", _conv_macs),
    ("bitops", "binarize", None),
    ("bitops", "binary_dense", None),
    ("layers", "RealConv2d.infer", None),
    ("layers", "BatchNorm.infer", None),
    ("layers", "avgpool2", None),
    ("layers", "ExitHead.infer", None),
    *((("layers", f"{cls}.{m}", None) for cls in TRAIN_LAYERS for m in ("forward", "backward"))),
    ("arch", "Model.forward_prefix", None),
    ("arch", "Model.forward_train", None),
    ("arch", "Model.backward_train", None),
    ("runtime", "infer_early_exit", _early_exit),
    ("runtime", "infer_fixed_exit", _fixed_exit),
    ("runtime", "DecisionRule.confidence", None),
    ("evaluation", "sweep", None),
    ("evaluation", "exit_generalization_table", None),
    ("training", "Optimizer.step", None),
    ("training", "exit_accuracies", None),
)


def install(tracer: spans.Tracer, eebnn, models=()) -> None:
    """Wrap every traced callable; blocks and heads of `models` per instance."""
    for mod, dotted, hook in MODULE_PATCHES:
        owner = getattr(eebnn, mod, None)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        tracer.patch(owner, attr, f"{mod}.{dotted}", hook)
    for model in models:
        for kind, n in (("block", N_BLOCKS), ("exit", N_EXITS)):
            parts = getattr(model, kind + "s", [])
            for i in range(1, n + 1):
                owner = parts[i - 1] if i <= len(parts) else None
                tracer.patch(owner, "infer", f"arch.{kind}{i}.infer")


def _spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    calls, ms = ("calls/sample", "lower"), ("ms/sample", "lower")
    out = [
        ("frontend.featurize.calls_per_sample", *calls),
        ("frontend.featurize.self_ms_per_sample", *ms),
        ("data.FeatureBank.eval_feature.calls_per_sample", *calls),
        ("data.FeatureBank.hit_ratio", "ratio", "higher"),
        ("data.FeatureBank.train_batch.self_ms_per_sample", *ms),
        ("modelio.load_model.ms", "ms", "lower"),
        ("bitops.binary_conv2d.calls_per_sample", *calls),
        ("bitops.binary_conv2d.self_ms_per_sample", *ms),
        ("bitops.binary_conv2d.gmac_per_s", "GMAC/s", "higher"),
        ("bitops.binarize.calls_per_sample", *calls),
        ("bitops.binarize.self_ms_per_sample", *ms),
        ("bitops.binary_dense.self_ms_per_sample", *ms),
    ]
    out += [(f"layers.{c}.self_ms_per_sample", *ms)
            for c in ("RealConv2d.infer", "BatchNorm.infer", "avgpool2", "ExitHead.infer")]
    out += [(f"layers.{c}.{m}.self_ms_per_sample", *ms)
            for c in TRAIN_LAYERS for m in ("forward", "backward")]
    for kind, n in (("block", N_BLOCKS), ("exit", N_EXITS)):
        for i in range(1, n + 1):
            out += [(f"arch.{kind}{i}.infer.calls_per_sample", *calls),
                    (f"arch.{kind}{i}.infer.ms_per_sample", *ms)]
    out += [
        ("arch.Model.forward_prefix.calls_per_sample", *calls),
        ("arch.Model.forward_prefix.self_ms_per_sample", *ms),
        ("arch.Model.forward_train.ms_per_sample", *ms),
        ("arch.Model.backward_train.ms_per_sample", *ms),
        ("runtime.infer_early_exit.calls_per_sample", *calls),
        ("runtime.infer_early_exit.self_ms_per_sample", *ms),
        ("runtime.infer_fixed_exit.calls_per_sample", *calls),
        ("runtime.DecisionRule.confidence.self_ms_per_sample", *ms),
        ("runtime.heads_per_sample", "heads/sample", "lower"),
    ]
    out += [(f"runtime.exit{i}_share", "ratio", "lower" if i == N_EXITS else "higher")
            for i in range(1, N_EXITS + 1)]
    out += [
        ("runtime.wasted_head_macs_share", "ratio", "lower"),
        ("evaluation.sweep.self_ms_per_sample", *ms),
        ("evaluation.passes_per_sample", "passes/sample", "lower"),
        ("evaluation.exit_generalization_table.ms_per_sample", *ms),
        ("training.Optimizer.step.self_ms_per_sample", *ms),
        ("training.exit_accuracies.ms_per_sample", *ms),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


PER_LAYER = _spec()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_layer_metrics(tracer: spans.Tracer, samples: int, load_model_ms: float,
                      overhead_share: float) -> dict[str, float]:
    """Every per-layer metric from the spans and counters of the traced operations."""
    stats = tracer.stats()
    c = tracer.counters

    def calls(name):
        return stats[name].calls if name in stats else 0

    def seconds(name, kind):
        return getattr(stats[name], kind) if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        callable_name, _, stat = name.rpartition(".")
        if stat == "calls_per_sample":
            out[name] = calls(callable_name) / samples
        elif stat == "self_ms_per_sample":
            out[name] = 1000.0 * seconds(callable_name, "self_s") / samples
        elif stat == "ms_per_sample":
            out[name] = 1000.0 * seconds(callable_name, "inclusive_s") / samples

    bank = ("data.FeatureBank.eval_feature", "data.FeatureBank.train_feature")
    requests = sum(calls(n) for n in bank)
    out["data.FeatureBank.hit_ratio"] = ratio(
        requests - tracer.count_child_of("frontend.featurize", set(bank)), requests)
    out["modelio.load_model.ms"] = load_model_ms
    out["bitops.binary_conv2d.gmac_per_s"] = ratio(
        c["conv_macs"] / 1e9, seconds("bitops.binary_conv2d", "inclusive_s"))
    out["runtime.heads_per_sample"] = c["heads"] / samples
    for i in range(1, N_EXITS + 1):
        out[f"runtime.exit{i}_share"] = ratio(c[f"exit{i}"], c["early_exits"])
    out["runtime.wasted_head_macs_share"] = ratio(c["wasted_head_macs"], c["early_exit_macs"])
    passes = sum(tracer.count_under(f"runtime.{n}", "evaluation.sweep")
                 for n in ("infer_early_exit", "infer_fixed_exit"))
    out["evaluation.passes_per_sample"] = passes / samples
    out["trace.overhead_share"] = overhead_share
    return {name: out[name] for name, _, _ in PER_LAYER}
