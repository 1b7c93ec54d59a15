"""Command-line surface.

Subcommands: train, eval, sweep, per-class, bench, features, synth-data.
Exit codes: 0 success, 1 usage error (bad flags/config), 2 data or model
error (missing/corrupt files, training divergence).

Every artifact-producing command writes its fully resolved configuration to
`<artifact>.config.json` next to the main output; passed back as `--config`
with only the path flags, it re-runs the command (`eval --fixed-exit` and
`bench --repeats` are not recorded and must be given again). Measured wall
times in outputs vary run to run; all other output bytes are deterministic
for a fixed argv and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import arch, config, data, evaluation, frontend, modelio, runtime, training


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _csv_floats(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")


def _csv_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> _Parser:
    p = _Parser(prog="eebnn", description="Early-exit binary network toolkit")
    sub = p.add_subparsers(dest="command", metavar="command")

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags override it")

    def add_synth(sp, seed_flag):
        sp.add_argument("--classes", type=int, help="synthetic class count")
        sp.add_argument("--per-class", type=int, help="synthetic samples per class")
        sp.add_argument("--difficulty", help="easy | hard | mixed")
        sp.add_argument(seed_flag, dest="data_seed", type=int, help="synthetic generator seed")

    def add_dataset(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--manifest", help="dataset manifest CSV (path,label,split)")
        g.add_argument("--synth", action="store_true", help="use the synthetic dataset")
        add_synth(sp, "--data-seed")

    sp = sub.add_parser("train", help="train a model", add_help=True)
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--seed", type=int, default=None, help="model init and shuffle seed")
    sp.add_argument("--family", default=None, choices=arch.FAMILIES)
    sp.add_argument("--widths", type=_csv_ints, default=None)
    sp.add_argument("--blocks", type=_csv_ints, default=None)
    sp.add_argument("--placements", type=_csv_ints, default=None)
    sp.add_argument("--optimizer", default=None, choices=training.OPTIMIZERS)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--exit-weights", type=_csv_floats, default=None)
    sp.add_argument("--out", required=True, help="output model file")

    sp = sub.add_parser("eval", help="evaluate a model")
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--delta", type=float, default=None, help="threshold of the configured rule")
    sp.add_argument("--rule", default=None, choices=runtime.RULE_KINDS)
    sp.add_argument("--temperature", type=float, default=None)
    sp.add_argument("--fixed-exit", type=int, default=None, help="bypass the rule, exit here")
    sp.add_argument("--records", default=None, help="write per-sample JSONL here")

    sp = sub.add_parser("sweep", help="threshold sweep")
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--deltas", type=_csv_floats, default=None)
    sp.add_argument("--out", required=True, help="output CSV; JSONL written alongside")

    sp = sub.add_parser("per-class", help="per-class exit histogram")
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--out", required=True, help="output CSV")

    sp = sub.add_parser("bench", help="per-exit latency micro-benchmark")
    add_common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--wav", default=None, help="input clip; default: synthetic tone")
    sp.add_argument("--repeats", type=int, default=30)
    sp.add_argument("--out", default=None, help="optional output CSV")

    sp = sub.add_parser("features", help="dump mel features for a WAV")
    add_common(sp)
    sp.add_argument("--wav", required=True)
    sp.add_argument("--out", required=True, help="output .npy")

    sp = sub.add_parser("synth-data", help="generate synthetic WAVs + manifest")
    add_common(sp)
    add_synth(sp, "--seed")
    sp.add_argument("--out", required=True, help="output directory")

    return p


def _merged(args, **flags) -> dict:
    """The --config file with every given flag on top."""
    base = config.load_config_file(args.config) if args.config else {}
    return config.merge(base, flags)


def _synth(args, merged) -> dict:
    """`merged` with a `data` section, the synthetic dataset flags on top of it."""
    flags = {"classes": args.classes, "per_class": args.per_class,
             "difficulty": args.difficulty, "seed": args.data_seed}
    return config.merge({"data": {}, **merged}, {"data": flags})


def _dataset_merged(args, **flags) -> dict:
    """`_merged` for a command that reads a dataset: a manifest run has no `data`
    section, a synthetic run (--synth, or a config file with one) always has one."""
    merged = _merged(args, **flags)
    if args.manifest:
        return {**merged, "data": None}
    if not (args.synth or "data" in merged):
        raise UsageError("provide --manifest or --synth")
    return _synth(args, merged)


def _dataset(args, rc) -> data.Dataset:
    d = rc["data"]
    if d is None:
        return data.load_manifest(args.manifest, expected_rate=rc["frontend"].sample_rate)
    return data.synth_dataset(d["classes"], d["per_class"], d["difficulty"], seed=d["seed"])


@contextlib.contextmanager
def _clip_errors(path):
    """A clip the front-end rejects is a data error naming its file, as in `data.FeatureBank`."""
    try:
        yield
    except ValueError as e:
        raise data.DataError(f"{path}: {e}") from e


def _load_model(path) -> arch.Model:
    model, _ = modelio.load_model(path)
    return model


def _cmd_train(args) -> int:
    arch_over = {
        "family": args.family,
        "widths": args.widths,
        "blocks": args.blocks,
        "exit_placements": args.placements,
    }
    train_over = {
        "optimizer": args.optimizer,
        "lr": args.lr,
        "batch_size": args.batch_size,
        "epochs": args.epochs,
        "seed": args.seed,
        "exit_weights": args.exit_weights,
    }
    merged = _dataset_merged(args, arch=arch_over, train=train_over)
    ds = _dataset(args, config.resolve({**merged, "arch": {}}))  # dataset first; it sets n_classes
    if merged.get("arch"):
        claimed = merged["arch"].get("n_classes")
        if claimed is None:
            merged["arch"]["n_classes"] = ds.n_classes
        elif claimed != ds.n_classes:
            raise UsageError(
                f"config says {claimed} classes but the dataset has {ds.n_classes}"
            )
    rc = config.resolve(merged)
    spec = rc["arch"]
    if spec is None:
        raise UsageError("no architecture given; pass --family/--widths/--blocks or a config file")
    tc = rc["train"]
    model = arch.build(spec, seed=tc.seed)
    print(f"built {evaluation.model_id(model)}: {model.param_count()} params, "
          f"{model.total_macs} MACs full pass", flush=True)
    history = training.train_loop(
        model, ds, tc, fe_cfg=rc["frontend"],
        progress=lambda r: print(
            f"epoch {r['epoch']:3d}  loss {r['loss']:.4f}  "
            f"test_acc {' '.join(f'{a:.3f}' for a in r['test_acc'])}", flush=True),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    meta = {"train": rc["resolved"]["train"], "epochs_run": len(history)}
    report = modelio.save_model(model, out, meta=meta)
    _write_history_csv(history, out.parent / (out.name + ".history.csv"))
    config.write_resolved(rc["resolved"], out)
    ratio = report["compression_ratio"]
    print(f"saved {out} ({report['file_bytes']} bytes; binary blobs "
          f"{report['binary_blob_bytes']} vs {report['binary_as_float_bytes']} as float32"
          + (f", ratio {ratio:.4f}" if ratio else ""))
    return 0


def _write_history_csv(history, path):
    import csv as _csv

    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        head = ["epoch", "loss"]
        head += [f"exit_loss{e}" for e in range(1, arch.N_EXITS + 1)]
        head += [f"train_acc{e}" for e in range(1, arch.N_EXITS + 1)]
        head += [f"test_acc{e}" for e in range(1, arch.N_EXITS + 1)]
        w.writerow(head)
        for r in history:
            w.writerow([r["epoch"], r["loss"], *r["exit_losses"], *r["train_acc"], *r["test_acc"]])


def _cmd_eval(args) -> int:
    rc = config.resolve(_dataset_merged(args, rule={
        "kind": args.rule, "threshold": args.delta, "temperature": args.temperature}))
    if args.fixed_exit is not None and not 1 <= args.fixed_exit <= arch.N_EXITS:
        raise UsageError(f"--fixed-exit must be in 1..{arch.N_EXITS}")
    model = _load_model(args.model)
    ds = _dataset(args, rc)
    bank = data.FeatureBank(ds, rc["frontend"], n_frames=model.spec.input_shape[0])
    rule = rc["rule"]
    bank, test_idx = evaluation.held_out_features(model, ds, bank)

    def infer(i):
        feat, label = bank.eval_feature(i), ds.samples[i].label
        if args.fixed_exit is None:
            return runtime.infer_early_exit(model, feat, rule, label=label)
        return runtime.infer_fixed_exit(model, feat, args.fixed_exit, label=label)

    records = tuple(infer(i) for i in test_idx)
    row = evaluation.row_from_records(rule.threshold, records)
    print(f"samples {len(records)}  accuracy {row.accuracy:.4f}  mean_exit {row.mean_exit:.3f}  "
          f"mean_macs {row.mean_macs:.0f}")
    if args.records:
        rec_path = Path(args.records)
        rec_path.parent.mkdir(parents=True, exist_ok=True)
        sw = evaluation.SweepResult(
            model_id=evaluation.model_id(model), dataset_id=ds.name,
            rule_kind=("fixed" if args.fixed_exit is not None else rule.kind),
            rows=(row,), records={rule.threshold: records}, baseline_accuracy=float("nan"),
        )
        evaluation.write_records_jsonl(sw, rec_path)
        config.write_resolved(rc["resolved"], rec_path)
        print(f"wrote {rec_path}")
    return 0


def _cmd_sweep(args) -> int:
    rc = config.resolve(_dataset_merged(args, sweep={"deltas": args.deltas}))
    model = _load_model(args.model)
    ds = _dataset(args, rc)
    bank = data.FeatureBank(ds, rc["frontend"], n_frames=model.spec.input_shape[0])
    rule = rc["rule"]
    sw = evaluation.sweep(model, ds, rc["deltas"], rule.kind, rule.temperature, bank=bank)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    evaluation.write_sweep_csv(sw, out)
    jsonl = out.parent / (out.stem + ".records.jsonl")
    evaluation.write_records_jsonl(sw, jsonl)
    curve = out.parent / (out.stem + ".curve.csv")
    evaluation.write_curve_csv(evaluation.accuracy_vs_avg_exit(sw), curve)
    config.write_resolved(rc["resolved"], out)
    for row in sw.rows:
        print(f"delta {row.delta:<6g} accuracy {row.accuracy:.4f}  mean_exit {row.mean_exit:.3f}  "
              f"mean_macs {row.mean_macs:.0f}")
    print(f"baseline (always exit {arch.N_EXITS}): accuracy {sw.baseline_accuracy:.4f}")
    print(f"wrote {out}, {jsonl}, {curve}")
    return 0


def _cmd_per_class(args) -> int:
    rc = config.resolve(_dataset_merged(args, rule={"threshold": args.delta}))
    model = _load_model(args.model)
    ds = _dataset(args, rc)
    bank = data.FeatureBank(ds, rc["frontend"], n_frames=model.spec.input_shape[0])
    rule = rc["rule"]
    stats = evaluation.per_class_exits(model, ds, rule.threshold, rule.kind, rule.temperature,
                                       bank=bank)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    evaluation.write_per_class_csv(stats, out)
    config.write_resolved(rc["resolved"], out)
    for c in range(stats.counts.shape[0]):
        me = stats.mean_exit(c)
        label = f"class {c}"
        if c in stats.empty_classes:
            print(f"{label}: no test samples")
        else:
            print(f"{label}: mean_exit {me:.3f}  n {int(stats.counts[c].sum())}")
    print(f"wrote {out}")
    return 0


def _cmd_bench(args) -> int:
    rc = config.resolve({**_merged(args), "data": None})  # reads no dataset
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    model = _load_model(args.model)
    if args.wav:
        pcm, _ = frontend.load_wav(args.wav, expected_rate=rc["frontend"].sample_rate)
    else:
        t = np.arange(rc["frontend"].sample_rate) / rc["frontend"].sample_rate
        pcm = (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)
    with _clip_errors(args.wav):  # the tone is long enough; only a --wav clip can be rejected
        table = evaluation.bench_exits(model, pcm, repeats=args.repeats, fe_cfg=rc["frontend"])
    print("exit  macs          median_ms  iqr_ms")
    for r in table:
        print(f"{r['exit']:>4}  {r['macs']:<12}  {r['median_ms']:9.3f}  {r['iqr_ms']:6.3f}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        evaluation.write_bench_csv(table, out)
        config.write_resolved(rc["resolved"], out)
        print(f"wrote {out}")
    return 0


def _cmd_features(args) -> int:
    rc = config.resolve({**_merged(args), "data": None})  # reads no dataset
    pcm, rate = frontend.load_wav(args.wav, expected_rate=rc["frontend"].sample_rate)
    with _clip_errors(args.wav):
        feat = frontend.featurize(pcm, rc["frontend"], mode="eval")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.save(out, feat.data)
    config.write_resolved(rc["resolved"], out)
    print(f"{args.wav}: {len(pcm)} samples at {rate} Hz -> features {feat.data.shape} "
          f"({feat.duration_ms:.0f} ms); wrote {out}")
    return 0


def _cmd_synth_data(args) -> int:
    rc = config.resolve(_synth(args, _merged(args)))
    ds = _dataset(args, rc)
    out = Path(args.out)
    manifest = data.write_manifest(ds, out)
    config.write_resolved(rc["resolved"], manifest)
    n_train = len(ds.split("train"))
    n_test = len(ds.split("test"))
    print(f"wrote {len(ds.samples)} clips ({n_train} train / {n_test} test) under {out}")
    print(f"manifest: {manifest}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "per-class": _cmd_per_class,
    "bench": _cmd_bench,
    "features": _cmd_features,
    "synth-data": _cmd_synth_data,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except config.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (data.DataError, frontend.WavFormatError, modelio.ModelFormatError,
            training.TrainingDiverged) as e:
        # before ValueError: WavFormatError subclasses it
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(cli(sys.argv[1:]))
