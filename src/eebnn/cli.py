"""Command-line surface, run as `eebnn` or `python -m eebnn`.

Subcommands: train, eval, sweep, per-class, bench, features, synth-data.
Exit codes: 0 success, 1 usage error (bad flags/config, including a
synthetic run whose `frontend.sample_rate` is not the synthetic clips'
rate), 2 data or model error (missing/corrupt files, training divergence,
evaluating on more classes than the model predicts).

A flag that sets a config value is declared with that value's path as its
dest ("train.lr"), so `--help` shows the key as its metavar (a flag with
fixed choices lists them instead) and `_merged` lays every given flag over
the `--config` file in one pass.

Every artifact-producing command writes its fully resolved configuration to
`<artifact>.config.json` next to the main output; passed back as `--config`
with only the path flags, it re-runs the command (`eval --fixed-exit` and
`bench --repeats` are not recorded and must be given again). Measured wall
times in outputs vary run to run; all other output bytes are deterministic
for a fixed argv and seed.
"""

from __future__ import annotations

import argparse
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


def _csv_of(kind):
    """An argparse type: comma-separated `kind` values (int or float) as a tuple."""
    def parse(text):
        try:
            return tuple(kind(x) for x in text.split(","))
        except ValueError:
            raise UsageError(f"expected comma-separated {kind.__name__} values, got {text!r}")
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="eebnn", description="Early-exit binary network toolkit")
    sub = p.add_subparsers(dest="command", metavar="command")

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags override it")

    def add_synth(sp, seed_flag):
        sp.add_argument("--classes", dest="data.classes", type=int, help="synthetic class count")
        sp.add_argument("--per-class", dest="data.per_class", type=int,
                        help="synthetic samples per class")
        sp.add_argument("--difficulty", dest="data.difficulty", help="easy | hard | mixed")
        sp.add_argument(seed_flag, dest="data.seed", type=int, help="synthetic generator seed")

    def add_dataset(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--manifest", help="dataset manifest CSV (path,label,split)")
        g.add_argument("--synth", action="store_true", help="use the synthetic dataset")
        add_synth(sp, "--data-seed")

    sp = sub.add_parser("train", help="train a model", add_help=True)
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--seed", dest="train.seed", type=int, help="model init and shuffle seed")
    sp.add_argument("--family", dest="arch.family", choices=arch.FAMILIES)
    sp.add_argument("--widths", dest="arch.widths", type=_csv_of(int))
    sp.add_argument("--blocks", dest="arch.blocks", type=_csv_of(int))
    sp.add_argument("--placements", dest="arch.exit_placements", type=_csv_of(int))
    sp.add_argument("--optimizer", dest="train.optimizer", choices=training.OPTIMIZERS)
    sp.add_argument("--lr", dest="train.lr", type=float)
    sp.add_argument("--batch-size", dest="train.batch_size", type=int)
    sp.add_argument("--epochs", dest="train.epochs", type=int)
    sp.add_argument("--exit-weights", dest="train.exit_weights", type=_csv_of(float))
    sp.add_argument("--out", required=True, help="output model file")

    sp = sub.add_parser("eval", help="evaluate a model")
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--delta", dest="rule.threshold", type=float,
                    help="threshold of the configured rule")
    sp.add_argument("--rule", dest="rule.kind", choices=runtime.RULE_KINDS)
    sp.add_argument("--temperature", dest="rule.temperature", type=float)
    sp.add_argument("--fixed-exit", type=int, default=None, help="bypass the rule, exit here")
    sp.add_argument("--records", default=None, help="write per-sample JSONL here")

    sp = sub.add_parser("sweep", help="threshold sweep")
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--deltas", dest="sweep.deltas", type=_csv_of(float))
    sp.add_argument("--out", required=True, help="output CSV; JSONL written alongside")

    sp = sub.add_parser("per-class", help="per-class exit histogram")
    add_common(sp)
    add_dataset(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--delta", dest="rule.threshold", type=float)
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


def _merged(args) -> dict:
    """The --config file with every given flag on top; a flag's dest is its config path.

    `data` is null for a manifest run and a command that reads no dataset, and a
    section for a synthetic run: --synth, a file with a `data` section, or synth-data.
    """
    base = config.load_config_file(args.config) if args.config else {}
    flags = {}
    for dest, value in vars(args).items():
        if "." in dest:
            section, key = dest.split(".")
            flags.setdefault(section, {})[key] = value
    merged = config.merge(base, flags)
    if args.command in ("bench", "features") or getattr(args, "manifest", None):
        merged["data"] = None
    elif args.command == "synth-data" or args.synth or "data" in base:
        merged.setdefault("data", {})
    else:
        raise UsageError("provide --manifest or --synth")
    return merged


def _dataset(args, rc) -> data.Dataset:
    d = rc["data"]
    if d is None:
        return data.load_manifest(args.manifest, expected_rate=rc["frontend"].sample_rate)
    return data.synth_dataset(d["classes"], d["per_class"], d["difficulty"], seed=d["seed"])


def _evaluated(args, rc) -> tuple[arch.Model, data.Dataset, data.FeatureBank]:
    """The model, the dataset it is evaluated on, and their features at its frame count."""
    model, _ = modelio.load_model(args.model)
    ds = _dataset(args, rc)
    if ds.n_classes > model.spec.n_classes:
        raise data.DataError(f"{args.model} predicts {model.spec.n_classes} classes, "
                             f"but the dataset has {ds.n_classes}")
    return model, ds, data.FeatureBank(ds, rc["frontend"], n_frames=model.spec.input_shape[0])


def _out_path(path) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_train(args) -> int:
    merged = _merged(args)
    ds = _dataset(args, config.resolve({**merged, "arch": {}}))  # dataset first; it sets n_classes
    if merged.get("arch"):
        claimed = merged["arch"].setdefault("n_classes", ds.n_classes)
        if claimed != ds.n_classes:
            raise UsageError(f"config says {claimed} classes but the dataset has {ds.n_classes}")
    rc = config.resolve(merged)
    spec = rc["arch"]
    if spec is None:
        raise UsageError("no architecture given; pass --family/--widths/--blocks or a config file")
    tc = rc["train"]
    model = arch.build(spec, seed=tc.seed)
    bank = data.FeatureBank(ds, rc["frontend"], n_frames=spec.input_shape[0])
    print(f"built {evaluation.model_id(model)}: {model.param_count()} params, "
          f"{model.total_macs} MACs full pass", flush=True)
    history = training.train_loop(
        model, ds, tc, bank,
        progress=lambda r: print(
            f"epoch {r['epoch']:3d}  loss {r['loss']:.4f}  "
            f"test_acc {' '.join(f'{a:.3f}' for a in r['test_acc'])}", flush=True),
    )
    out = _out_path(args.out)
    meta = {"train": rc["resolved"]["train"], "epochs_run": len(history)}
    report = modelio.save_model(model, out, meta=meta)
    evaluation.write_history_csv(history, out.parent / (out.name + ".history.csv"))
    config.write_resolved(rc["resolved"], out)
    ratio = report["compression_ratio"]
    print(f"saved {out} ({report['file_bytes']} bytes; binary blobs "
          f"{report['binary_blob_bytes']} vs {report['binary_as_float_bytes']} as float32"
          + (f", ratio {ratio:.4f}" if ratio else ""))
    return 0


def _cmd_eval(args) -> int:
    rc = config.resolve(_merged(args))
    if args.fixed_exit is not None and not 1 <= args.fixed_exit <= arch.N_EXITS:
        raise UsageError(f"--fixed-exit must be in 1..{arch.N_EXITS}")
    model, ds, bank = _evaluated(args, rc)
    rule = rc["rule"]
    records = evaluation.held_out_records(model, ds, rule, args.fixed_exit, bank)
    row = evaluation.row_from_records(rule.threshold, records)
    print(f"samples {len(records)}  accuracy {row.accuracy:.4f}  mean_exit {row.mean_exit:.3f}  "
          f"mean_macs {row.mean_macs:.0f}")
    if args.records:
        rec_path = _out_path(args.records)
        evaluation.write_records_jsonl(
            rec_path, {rule.threshold: records}, model=evaluation.model_id(model),
            dataset=ds.name, rule=("fixed" if args.fixed_exit is not None else rule.kind))
        config.write_resolved(rc["resolved"], rec_path)
        print(f"wrote {rec_path}")
    return 0


def _cmd_sweep(args) -> int:
    rc = config.resolve(_merged(args))
    model, ds, bank = _evaluated(args, rc)
    rule = rc["rule"]
    sw = evaluation.sweep(model, ds, rc["deltas"], rule.kind, rule.temperature, bank=bank)
    out = _out_path(args.out)
    evaluation.write_sweep_csv(sw, out)
    jsonl = out.parent / (out.stem + ".records.jsonl")
    evaluation.write_records_jsonl(jsonl, sw.records, model=sw.model_id, dataset=sw.dataset_id,
                                   rule=sw.rule_kind)
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
    rc = config.resolve(_merged(args))
    model, ds, bank = _evaluated(args, rc)
    rule = rc["rule"]
    records = evaluation.held_out_records(model, ds, rule, bank=bank)
    stats = evaluation.per_class_exits(records, ds.n_classes, rule.threshold)
    out = _out_path(args.out)
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
    rc = config.resolve(_merged(args))
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    model, _ = modelio.load_model(args.model)
    if args.wav:
        pcm, _ = frontend.load_wav(args.wav, expected_rate=rc["frontend"].sample_rate)
        data.clip_features(pcm, rc["frontend"], args.wav)  # a rejected clip fails naming its file
    else:
        t = np.arange(rc["frontend"].sample_rate) / rc["frontend"].sample_rate
        pcm = (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)
    table = evaluation.bench_exits(model, pcm, repeats=args.repeats, fe_cfg=rc["frontend"])
    print("exit  macs          median_ms  iqr_ms")
    for r in table:
        print(f"{r['exit']:>4}  {r['macs']:<12}  {r['median_ms']:9.3f}  {r['iqr_ms']:6.3f}")
    if args.out:
        out = _out_path(args.out)
        evaluation.write_bench_csv(table, out)
        config.write_resolved(rc["resolved"], out)
        print(f"wrote {out}")
    return 0


def _cmd_features(args) -> int:
    rc = config.resolve(_merged(args))
    pcm, rate = frontend.load_wav(args.wav, expected_rate=rc["frontend"].sample_rate)
    feat = data.clip_features(pcm, rc["frontend"], args.wav).astype(np.float32)
    out = _out_path(args.out)
    np.save(out, feat)
    config.write_resolved(rc["resolved"], out)
    print(f"{args.wav}: {len(pcm)} samples at {rate} Hz -> features {feat.shape} "
          f"({1000.0 * len(pcm) / rate:.0f} ms); wrote {out}")
    return 0


def _cmd_synth_data(args) -> int:
    rc = config.resolve(_merged(args))
    ds = _dataset(args, rc)
    out = Path(args.out)
    manifest = data.write_manifest(ds, out)
    config.write_resolved(rc["resolved"], manifest)
    n_train = len(ds.indices("train"))
    n_test = len(ds.indices("test"))
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


if __name__ == "__main__":
    entry()
