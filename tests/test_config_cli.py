"""Config plumbing and end-to-end CLI tests (in-process, tiny models)."""
import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eebnn
from eebnn import arch, config, data, frontend, modelio, runtime
from eebnn.cli import _build_parser, cli
from eebnn.evaluation import SWEEP_CSV_HEADER, read_records_jsonl

# --- config ------------------------------------------------------------------


def test_load_config_file_errors(tmp_path):
    with pytest.raises(config.ConfigError, match="not found"):
        config.load_config_file(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(config.ConfigError, match="not valid JSON"):
        config.load_config_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(config.ConfigError, match="top level"):
        config.load_config_file(arr)
    sect = tmp_path / "sect.json"
    sect.write_text('{"training": {}}')
    with pytest.raises(config.ConfigError, match="unknown section"):
        config.load_config_file(sect)
    key = tmp_path / "key.json"
    key.write_text('{"train": {"learning_rate": 0.1}}')
    with pytest.raises(config.ConfigError, match="unknown key"):
        config.load_config_file(key)
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"train": 3}')
    with pytest.raises(config.ConfigError, match="must be an object"):
        config.load_config_file(scalar)


def test_merge_precedence_and_none_skipping():
    base = {"train": {"lr": 0.1, "epochs": 5}}
    out = config.merge(base, {"train": {"lr": 0.2, "epochs": None},
                              "rule": {"threshold": 0.7}})
    assert out["train"]["lr"] == 0.2
    assert out["train"]["epochs"] == 5
    assert out["rule"] == {"threshold": 0.7}
    assert base["train"]["lr"] == 0.1  # input untouched


def test_resolve_defaults_and_derived_input_shape():
    rc = config.resolve({})
    assert rc["arch"] is None
    assert rc["rule"].kind == "entropy" and rc["rule"].threshold == 0.5
    assert rc["deltas"] == (0.1, 0.25, 0.5, 0.75, 1.0)
    assert rc["frontend"].n_mels == 64

    rc2 = config.resolve({"arch": {"family": "quicknet", "widths": [8, 16],
                                   "blocks": [3, 3], "n_classes": 3}})
    assert rc2["arch"].input_shape == (98, 64, 1)  # derived from the front-end

    with pytest.raises(config.ConfigError, match="missing"):
        config.resolve({"arch": {"family": "quicknet"}})
    with pytest.raises(config.ConfigError, match="train config"):
        config.resolve({"train": {"lr": -1.0}})


def test_write_resolved_sidecar(tmp_path):
    rc = config.resolve({})
    target = tmp_path / "thing.csv"
    side = config.write_resolved(rc["resolved"], target)
    assert side == tmp_path / "thing.csv.config.json"
    loaded = json.loads(side.read_text())
    assert set(loaded) == {"arch", "frontend", "train", "rule", "sweep", "data"}


# --- CLI ----------------------------------------------------------------------

TRAIN_ARGS = ["--synth", "--classes", "3", "--per-class", "8", "--data-seed", "4",
              "--family", "quicknet", "--widths", "8,16", "--blocks", "3,3",
              "--optimizer", "adam", "--epochs", "1", "--batch-size", "8",
              "--lr", "0.003", "--seed", "2"]

DATASET_ARGS = ["--synth", "--classes", "3", "--per-class", "8", "--data-seed", "4"]


@pytest.fixture(scope="module")
def cli_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "tiny.eebnn"
    assert cli(["train", *TRAIN_ARGS, "--out", str(out)]) == 0
    return out


def test_train_writes_artifacts(cli_model):
    assert cli_model.exists()
    sidecar = cli_model.parent / (cli_model.name + ".config.json")
    resolved = json.loads(sidecar.read_text())
    assert resolved["arch"]["n_classes"] == 3  # filled in from the dataset
    assert resolved["train"]["epochs"] == 1
    history = cli_model.parent / (cli_model.name + ".history.csv")
    lines = history.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,loss,exit_loss1")
    assert len(lines) == 2


def test_eval_delta_zero_matches_fixed_exit_five(cli_model, capsys):
    assert cli(["eval", "--model", str(cli_model), *DATASET_ARGS, "--delta", "0"]) == 0
    out_delta = capsys.readouterr().out.strip().splitlines()[-1]
    assert cli(["eval", "--model", str(cli_model), *DATASET_ARGS, "--fixed-exit", "5"]) == 0
    out_fixed = capsys.readouterr().out.strip().splitlines()[-1]

    def parse(line):
        toks = line.split()
        return dict(zip(toks[::2], map(float, toks[1::2])))

    d, f = parse(out_delta), parse(out_fixed)
    assert d["accuracy"] == f["accuracy"]
    assert d["mean_exit"] == f["mean_exit"] == 5.0
    # delta = 0 runs every head on the way; the fixed run pays only the last
    assert d["mean_macs"] > f["mean_macs"]


def test_eval_records_jsonl(cli_model, tmp_path, capsys):
    rec = tmp_path / "eval.jsonl"
    code = cli(["eval", "--model", str(cli_model), *DATASET_ARGS,
                "--delta", "0.5", "--records", str(rec)])
    assert code == 0
    capsys.readouterr()
    lines = [json.loads(l) for l in rec.read_text().splitlines()]
    assert len(lines) == 6  # 3 classes x 8 per class x 2 tiers -> 1 test clip each... per tier
    assert all(1 <= l["exit"] <= 5 for l in lines)
    assert (tmp_path / "eval.jsonl.config.json").exists()


def test_eval_usage_errors(cli_model, capsys):
    assert cli(["eval", "--model", str(cli_model), *DATASET_ARGS,
                "--delta", "0.5", "--threshold", "0.5"]) == 1
    assert cli(["eval", "--model", str(cli_model), *DATASET_ARGS,
                "--fixed-exit", "9"]) == 1
    capsys.readouterr()


def test_sweep_csv_contract(cli_model, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli(["sweep", "--model", str(cli_model), *DATASET_ARGS,
                "--deltas", "0.1,0.25,0.5,0.75,1.0", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 6
    assert (tmp_path / "sweep.records.jsonl").exists()
    assert (tmp_path / "sweep.curve.csv").exists()
    assert (tmp_path / "sweep.csv.config.json").exists()


def test_sweep_rejects_bad_grid(cli_model, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli(["sweep", "--model", str(cli_model), *DATASET_ARGS,
                "--deltas", "0.5,0.5", "--out", str(out)]) == 1
    capsys.readouterr()
    assert not out.exists()


def test_per_class_csv(cli_model, tmp_path, capsys):
    out = tmp_path / "pc.csv"
    assert cli(["per-class", "--model", str(cli_model), *DATASET_ARGS,
                "--delta", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("class,n,frac_exit1")
    assert len(lines) == 4


SOFTMAX_RULE = {"kind": "softmax-confidence", "threshold": 0.5, "temperature": 2.0}
SOFTMAX_GRID = (0.45, 0.5, 0.55, 0.6, 1.0)


def _softmax_config(tmp_path):
    cfg = tmp_path / "softmax.json"
    cfg.write_text(json.dumps({"rule": SOFTMAX_RULE}))
    return cfg


def _direct_exits(model_path, threshold):
    """(label, exit) per test clip from infer_early_exit run with the configured rule."""
    model, _ = modelio.load_model(model_path)
    ds = data.synth_dataset(3, 8, "mixed", seed=4)  # what DATASET_ARGS builds
    bank = data.FeatureBank(ds, n_frames=model.spec.input_shape[0])
    rule = runtime.DecisionRule(SOFTMAX_RULE["kind"], threshold, SOFTMAX_RULE["temperature"])
    return [(ds.samples[i].label,
             runtime.infer_early_exit(model, bank.eval_feature(i), rule).exit_index)
            for i, s in enumerate(ds.samples) if s.split == "test"]


def test_sweep_honours_configured_rule(cli_model, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli(["sweep", "--config", str(_softmax_config(tmp_path)), "--model", str(cli_model),
                *DATASET_ARGS, "--deltas", ",".join(map(str, SOFTMAX_GRID)),
                "--out", str(out)]) == 0
    capsys.readouterr()
    resolved = json.loads((tmp_path / "sweep.csv.config.json").read_text())
    assert resolved["rule"]["kind"] == SOFTMAX_RULE["kind"]
    recs = read_records_jsonl(tmp_path / "sweep.records.jsonl")
    assert len(recs) == len(SOFTMAX_GRID) * 6
    assert all(r["rule"] == SOFTMAX_RULE["kind"] for r in recs)
    for d in SOFTMAX_GRID:
        got = [r["exit"] for r in recs if r["delta"] == d]
        assert got == [e for _, e in _direct_exits(cli_model, d)], d


def test_eval_honours_configured_rule(cli_model, tmp_path, capsys):
    """--delta sets the configured rule's threshold; it does not switch the rule to entropy."""
    rec = tmp_path / "eval.jsonl"
    delta = SOFTMAX_GRID[2]
    assert cli(["eval", "--config", str(_softmax_config(tmp_path)), "--model", str(cli_model),
                *DATASET_ARGS, "--delta", str(delta), "--records", str(rec)]) == 0
    capsys.readouterr()
    recs = read_records_jsonl(rec)
    assert all(r["rule"] == SOFTMAX_RULE["kind"] and r["delta"] == delta for r in recs)
    assert [(r["label"], r["exit"]) for r in recs] == _direct_exits(cli_model, delta)


def test_per_class_honours_configured_rule(cli_model, tmp_path, capsys):
    out = tmp_path / "pc.csv"
    delta = SOFTMAX_GRID[2]
    assert cli(["per-class", "--config", str(_softmax_config(tmp_path)), "--model", str(cli_model),
                *DATASET_ARGS, "--delta", str(delta), "--out", str(out)]) == 0
    capsys.readouterr()
    counts = np.zeros((3, arch.N_EXITS))
    for label, e in _direct_exits(cli_model, delta):
        counts[label, e - 1] += 1
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    for c, row in enumerate(rows):
        assert int(row[1]) == counts[c].sum()
        np.testing.assert_array_equal([float(v) for v in row[2:7]], counts[c] / counts[c].sum())


@pytest.mark.parametrize("command", ["eval", "sweep", "per-class", "bench", "features"])
def test_seed_only_on_train_and_synth_data(cli_model, tmp_path, capsys, command):
    io_args = {"eval": ["--model", str(cli_model), *DATASET_ARGS],
               "sweep": ["--model", str(cli_model), *DATASET_ARGS, "--out", str(tmp_path / "s")],
               "per-class": ["--model", str(cli_model), *DATASET_ARGS, "--out", str(tmp_path / "p")],
               "bench": ["--model", str(cli_model)],
               "features": ["--wav", str(tmp_path / "w.wav"), "--out", str(tmp_path / "f")]}
    assert cli([command, *io_args[command], "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_bench_runs(cli_model, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert cli(["bench", "--model", str(cli_model), "--repeats", "2",
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "median_ms" in printed
    assert len(out.read_text().strip().splitlines()) == 6


@pytest.mark.parametrize("seconds", [0.8, 1.5])
def test_bench_wav_not_one_second(cli_model, tmp_path, capsys, seconds):
    """A clip shorter or longer than the model's input is padded or cropped, as in eval."""
    t = np.arange(int(seconds * 16000)) / 16000
    wav = tmp_path / "clip.wav"
    frontend.write_wav(wav, (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32), 16000)
    assert cli(["bench", "--model", str(cli_model), "--wav", str(wav), "--repeats", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [int(r.split()[0]) for r in rows] == [1, 2, 3, 4, 5]


def test_features_command(cli_model, tmp_path, capsys):
    wav_dir = tmp_path / "corpus"
    assert cli(["synth-data", "--classes", "2", "--per-class", "3",
                "--out", str(wav_dir), "--seed", "1"]) == 0
    capsys.readouterr()
    manifest = wav_dir / "manifest.csv"
    assert manifest.exists()
    wavs = sorted((wav_dir / "wavs").glob("*.wav"))
    assert len(wavs) == 6

    out = tmp_path / "feat.npy"
    assert cli(["features", "--wav", str(wavs[0]), "--out", str(out)]) == 0
    capsys.readouterr()
    feat = np.load(out)
    assert feat.shape == (98, 64)


def test_synth_data_config_file(tmp_path, capsys):
    """Flags left out do not override the file: its data section decides the corpus."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"classes": 3, "per_class": 5}}))
    assert cli(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()
    assert len(list((tmp_path / "corpus" / "wavs").glob("*.wav"))) == 15
    sidecar = json.loads((tmp_path / "corpus" / "manifest.csv.config.json").read_text())
    assert sidecar["data"] == {"classes": 3, "per_class": 5, "difficulty": "mixed", "seed": 0}


def _timeless(path):
    """What a run wrote at `path`, minus wall-clock fields (JSONL `wall_ms`, CSV timing columns)."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    if path.suffix == ".jsonl":
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in read_records_jsonl(path)]
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, h in enumerate(rows[0]) if h not in ("mean_ms", "median_ms", "iqr_ms")]
        return [[row[i] for i in keep] for row in rows]
    return path.read_bytes()


# command: (first run's flags, path flags, outputs with the sidecar beside the first);
# "{d}" is the run's directory. train's first run is the cli_model fixture.
SIDECAR_RUNS = {
    "train": (None, ["--out", "{d}/tiny.eebnn"], ["tiny.eebnn", "tiny.eebnn.history.csv"]),
    "eval": ([*DATASET_ARGS, "--delta", "0.25"], ["--model", "{model}", "--records", "{d}/r.jsonl"],
             ["r.jsonl"]),
    "sweep": ([*DATASET_ARGS, "--deltas", "0.25,0.5"], ["--model", "{model}", "--out", "{d}/s.csv"],
              ["s.csv", "s.records.jsonl", "s.curve.csv"]),
    "per-class": ([*DATASET_ARGS, "--delta", "0.25"], ["--model", "{model}", "--out", "{d}/p.csv"],
                  ["p.csv"]),
    "bench": ([], ["--model", "{model}", "--wav", "{wav}", "--out", "{d}/b.csv"], ["b.csv"]),
    "features": ([], ["--wav", "{wav}", "--out", "{d}/f.npy"], ["f.npy"]),
    "synth-data": (["--classes", "2", "--per-class", "3", "--difficulty", "hard", "--seed", "5"],
                   ["--out", "{d}"], ["manifest.csv", "wavs"]),
}


@pytest.mark.parametrize("command", list(SIDECAR_RUNS))
def test_sidecar_reruns_to_itself(cli_model, tmp_path, capsys, command):
    """A command run again from its own sidecar writes the same sidecar and outputs."""
    flags, paths, outputs = SIDECAR_RUNS[command]
    wav = tmp_path / "clip.wav"
    t = np.arange(12000) / 16000
    frontend.write_wav(wav, (0.5 * np.sin(2 * np.pi * 300.0 * t)).astype(np.float32), 16000)

    def run(d, *config_flags):
        d.mkdir()
        fill = [a.format(d=d, model=cli_model, wav=wav) for a in paths]
        assert cli([command, *config_flags, *fill]) == 0

    first, again = tmp_path / "first", tmp_path / "again"
    if flags is None:
        first = cli_model.parent
    else:
        run(first, *flags)
    sidecar = outputs[0] + ".config.json"
    run(again, "--config", str(first / sidecar))
    capsys.readouterr()
    assert (again / sidecar).read_bytes() == (first / sidecar).read_bytes()
    for name in outputs:
        assert _timeless(again / name) == _timeless(first / name), name


def test_train_on_manifest(tmp_path, capsys):
    wav_dir = tmp_path / "corpus"
    assert cli(["synth-data", "--classes", "2", "--per-class", "10",
                "--out", str(wav_dir), "--seed", "3"]) == 0
    model_out = tmp_path / "m.eebnn"
    code = cli(["train", "--manifest", str(wav_dir / "manifest.csv"),
                "--family", "quicknet", "--widths", "8,16", "--blocks", "3,3",
                "--optimizer", "adam", "--epochs", "0", "--batch-size", "8",
                "--out", str(model_out)])
    assert code == 0
    capsys.readouterr()
    model, meta = modelio.load_model(model_out)
    assert model.spec.n_classes == 2
    assert meta["epochs_run"] == 0


def test_manifest_sidecar_reruns_only_with_manifest(tmp_path, capsys):
    """A manifest run's sidecar claims no synthetic data: without --manifest it is a
    usage error, with it the run repeats byte for byte."""
    corpus = tmp_path / "corpus"
    assert cli(["synth-data", "--classes", "2", "--per-class", "4", "--out", str(corpus)]) == 0
    manifest = ["--manifest", str(corpus / "manifest.csv")]
    first = tmp_path / "m.eebnn"
    assert cli(["train", *manifest, "--family", "quicknet", "--widths", "8,16",
                "--blocks", "3,3", "--epochs", "0", "--out", str(first)]) == 0
    sidecar = tmp_path / "m.eebnn.config.json"
    assert json.loads(sidecar.read_text())["data"] is None
    capsys.readouterr()
    assert cli(["train", "--config", str(sidecar), "--out", str(tmp_path / "x.eebnn")]) == 1
    assert cli(["eval", "--config", str(sidecar), "--model", str(first)]) == 1
    assert "provide --manifest or --synth" in capsys.readouterr().err
    again = tmp_path / "again.eebnn"
    assert cli(["train", "--config", str(sidecar), *manifest, "--out", str(again)]) == 0
    capsys.readouterr()
    assert again.read_bytes() == first.read_bytes()
    assert (tmp_path / "again.eebnn.config.json").read_bytes() == sidecar.read_bytes()


def test_zero_epoch_model_equals_fresh_build(tmp_path, capsys):
    out = tmp_path / "zero.eebnn"
    args = [a if a != "1" else "0" for a in TRAIN_ARGS]  # epochs 1 -> 0 (seed stays "2")
    idx = args.index("--epochs")
    args[idx + 1] = "0"
    assert cli(["train", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    loaded, _ = modelio.load_model(out)
    fresh = arch.build(loaded.spec, seed=2)
    feat = np.random.default_rng(0).standard_normal((98, 64, 1))
    a = [d for d, _, _ in runtime.exit_outputs(loaded, feat)]
    b = [d for d, _, _ in runtime.exit_outputs(fresh, feat)]
    for pa, pb in zip(a, b, strict=True):
        np.testing.assert_array_equal(pa, pb)


def test_train_class_count_conflict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": {"family": "quicknet", "widths": [8, 16],
                                        "blocks": [3, 3], "n_classes": 5}}))
    code = cli(["train", "--config", str(cfg), *DATASET_ARGS,
                "--epochs", "0", "--out", str(tmp_path / "x.eebnn")])
    assert code == 1
    err = capsys.readouterr().err
    assert "5 classes" in err and "3" in err


def test_config_file_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"momentum": 0.9}}')
    code = cli(["train", "--config", str(cfg), *DATASET_ARGS,
                "--family", "quicknet", "--widths", "8,16", "--blocks", "3,3",
                "--epochs", "0", "--out", str(tmp_path / "x.eebnn")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command,section", [
    ("sweep", {"sweep": {"deltas": 0.5}}),
    ("train", {"data": {"classes": "three"}}),
    ("train", {"data": {"per_class": 2.5}}),
    ("train", {"data": {"difficulty": 3}}),
    ("train", {"data": {"seed": "x"}}),
    ("train", {"train": {"seed": 1.5}}),
    ("train", {"train": {"batch_size": 2.5}}),
    ("train", {"arch": {"stem_channels": "x"}}),
    ("train", {"train": {"seed": True}}),  # a JSON boolean is not an int, though bool subclasses it
    ("train", {"data": {"classes": False}}),
    ("sweep", {"rule": {"threshold": True}}),
], ids=["sweep.deltas", "data.classes", "data.per_class", "data.difficulty", "data.seed",
        "train.seed", "train.batch_size", "arch.stem_channels", "train.seed-bool", "data.classes-bool",
        "rule.threshold-bool"])
def test_wrong_typed_config_value_exit_code_one(cli_model, tmp_path, capsys, command, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section))
    args = {"sweep": ["--model", str(cli_model), "--out", str(tmp_path / "s.csv")],
            "train": ["--family", "quicknet", "--widths", "8,16", "--blocks", "3,3",
                      "--epochs", "0", "--out", str(tmp_path / "m.eebnn")]}
    assert cli([command, "--synth", "--config", str(cfg), *args[command]]) == 1
    err = capsys.readouterr().err
    [(name, values)] = section.items()
    [key] = values
    assert "config error" in err and f"{name} config: {key}" in err


@pytest.mark.parametrize("values,message", [
    ({"classes": 1}, "at least 2 classes"),
    ({"per_class": 0}, "at least 1 sample"),
    ({"difficulty": "medium"}, "easy/hard/mixed"),
    ({"difficulty": {"loud": 1.0}}, "bad difficulty mix"),
    ({"difficulty": {"easy": -1.0, "hard": 2.0}}, "bad difficulty mix"),
], ids=["classes", "per_class", "difficulty", "tier", "weight"])
def test_out_of_range_data_value_names_its_section(tmp_path, capsys, values, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": values}))
    assert cli(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 1
    err = capsys.readouterr().err
    assert "config error: data config:" in err and message in err
    assert not (tmp_path / "corpus").exists()


def test_data_section_accepts_tier_weights():
    cfg = config.resolve({"data": {"classes": 2, "per_class": 4, "difficulty": {"easy": 1, "hard": 3}}})
    assert cfg["data"]["difficulty"] == {"easy": 1, "hard": 3}
    assert data.synth_tier_counts(2, 4, cfg["data"]["difficulty"]) == {"easy": 1, "hard": 3}


def test_synthetic_run_rejects_other_sample_rate(tmp_path, capsys):
    """Synthetic clips are 16 kHz; a front-end set to another rate would misread them."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frontend": {"sample_rate": 8000, "fmax": 3900, "fft_size": 256}}))
    assert cli(["train", "--config", str(cfg), *DATASET_ARGS, "--family", "quicknet",
                "--widths", "8,16", "--blocks", "3,3", "--epochs", "0",
                "--out", str(tmp_path / "m.eebnn")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "16000" in err and "8000" in err
    assert not (tmp_path / "m.eebnn").exists()


def test_eval_on_more_classes_than_the_model_exit_code_two(cli_model, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"classes": 4, "per_class": 5}}))
    assert cli(["eval", "--config", str(cfg), "--model", str(cli_model)]) == 2
    err = capsys.readouterr().err
    assert str(cli_model) in err and "3 classes" in err and "4" in err
    # a subset of the model's classes is fine
    assert cli(["eval", "--config", str(cfg), "--classes", "2", "--model", str(cli_model)]) == 0
    capsys.readouterr()


def _damaged_wav(tmp_path):
    """A valid 1 s clip whose `fmt ` chunk claims 0x003D0010 bytes, past the RIFF chunk."""
    wav = tmp_path / "damaged.wav"
    frontend.write_wav(wav, np.zeros(16000, dtype=np.float32), 16000)
    raw = bytearray(wav.read_bytes())
    raw[16:20] = (0x003D0010).to_bytes(4, "little")
    wav.write_bytes(bytes(raw))
    return wav


def _manifest(tmp_path, row: bytes):
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"path,label,split\n" + row + b"\n")
    return path


def _deep_json_model(tmp_path):
    path = tmp_path / "deep.eebnn"
    header = b"[" * 200000
    path.write_bytes(modelio.MAGIC + modelio.VERSION.to_bytes(2, "little")
                     + len(header).to_bytes(4, "little") + header)
    return path


def _config(tmp_path, raw: bytes):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    return path


# case -> builds (argv, exit code, what stderr must name) from tmp_path and the model
DAMAGED_INPUTS = {
    "wav": lambda tmp, model: (
        ["features", "--wav", str(w := _damaged_wav(tmp)), "--out", str(tmp / "f.npy")], 2, [str(w)]),
    "wav-in-manifest": lambda tmp, model: (
        ["eval", "--manifest", str(m := _manifest(tmp, b"damaged.wav,0,test")),
         "--model", str(model)], 2, [f"{m} line 2", str(_damaged_wav(tmp))]),
    "manifest-long-field": lambda tmp, model: (
        ["eval", "--manifest", str(m := _manifest(tmp, b"x" * 131073 + b",0,test")),
         "--model", str(model)], 2, [f"{m} line 2"]),
    "manifest-not-utf8": lambda tmp, model: (
        ["eval", "--manifest", str(m := _manifest(tmp, b"caf\xe9.wav,0,test")),
         "--model", str(model)], 2, [f"{m} line 2"]),
    "model-header-deep-json": lambda tmp, model: (
        ["bench", "--model", str(p := _deep_json_model(tmp))], 2, [str(p)]),
    "config-deep-json": lambda tmp, model: (
        ["features", "--config", str(c := _config(tmp, b"[" * 200000)), "--wav", "unused.wav",
         "--out", str(tmp / "f.npy")], 1, [str(c)]),
    "config-not-utf8": lambda tmp, model: (
        ["features", "--config", str(c := _config(tmp, b'{"train": {"optimizer": "\xff"}}')),
         "--wav", "unused.wav", "--out", str(tmp / "f.npy")], 1, [str(c)]),
}


@pytest.mark.parametrize("case", DAMAGED_INPUTS)
def test_damaged_input_is_an_error_naming_its_file(cli_model, tmp_path, capsys, case):
    argv, code, named = DAMAGED_INPUTS[case](tmp_path, cli_model)
    try:
        got = cli(argv)
    except Exception as e:  # the contract: nothing escapes cli
        pytest.fail(f"{type(e).__name__} escaped cli: {e}")
    err = capsys.readouterr().err
    assert got == code, err
    for text in named:
        assert text in err, err


# every config-bearing flag of a command at a non-default value:
# flag -> (argv value, config path the sidecar records it under, value recorded)
_DATA_FLAGS = {"--classes": ("2", "data.classes", 2), "--per-class": ("4", "data.per_class", 4),
               "--difficulty": ("easy", "data.difficulty", "easy"),
               "--data-seed": ("7", "data.seed", 7)}
CONFIG_FLAGS = {
    "train": {**_DATA_FLAGS, "--seed": ("5", "train.seed", 5),
              "--family": ("birealnet", "arch.family", "birealnet"),
              "--widths": ("8,16", "arch.widths", [8, 16]),
              "--blocks": ("3,3", "arch.blocks", [3, 3]),
              "--placements": ("1,2,3,5,6", "arch.exit_placements", [1, 2, 3, 5, 6]),
              "--optimizer": ("adam", "train.optimizer", "adam"),
              "--lr": ("0.004", "train.lr", 0.004),
              "--batch-size": ("6", "train.batch_size", 6),
              "--epochs": ("0", "train.epochs", 0),
              "--exit-weights": ("1,1,2,2,3", "train.exit_weights", [1.0, 1.0, 2.0, 2.0, 3.0])},
    "eval": {**_DATA_FLAGS, "--delta": ("0.6", "rule.threshold", 0.6),
             "--rule": ("softmax-confidence", "rule.kind", "softmax-confidence"),
             "--temperature": ("2.5", "rule.temperature", 2.5)},
    "sweep": {**_DATA_FLAGS, "--deltas": ("0.2,0.4", "sweep.deltas", [0.2, 0.4])},
    "per-class": {**_DATA_FLAGS, "--delta": ("0.3", "rule.threshold", 0.3)},
    "synth-data": {**{f: v for f, v in _DATA_FLAGS.items() if f != "--data-seed"},
                   "--seed": ("5", "data.seed", 5)},
}


def test_config_flags_are_declared_as_config_paths():
    """Each config-bearing flag's dest is the section.key it sets, and CONFIG_FLAGS lists them all."""
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    for command, sp in subparsers.choices.items():
        declared = {}
        for action in sp._actions:
            if "." in action.dest:
                section, key = action.dest.split(".")
                assert key in {f.name for f in dataclasses.fields(config.SECTIONS[section])}
                declared[action.option_strings[0]] = action.dest
        listed = {flag: path for flag, (_, path, _) in CONFIG_FLAGS.get(command, {}).items()}
        assert declared == listed, command


@pytest.mark.parametrize("command", list(CONFIG_FLAGS))
def test_every_config_flag_reaches_the_sidecar(cli_model, tmp_path, capsys, command):
    paths = {"train": (["--synth", "--out", str(tmp_path / "m.eebnn")], "m.eebnn"),
             "eval": (["--synth", "--model", str(cli_model), "--records", str(tmp_path / "r.jsonl")],
                      "r.jsonl"),
             "sweep": (["--synth", "--model", str(cli_model), "--out", str(tmp_path / "s.csv")],
                       "s.csv"),
             "per-class": (["--synth", "--model", str(cli_model), "--out", str(tmp_path / "p.csv")],
                           "p.csv"),
             "synth-data": (["--out", str(tmp_path)], "manifest.csv")}
    argv, artifact = paths[command]
    flags = CONFIG_FLAGS[command]
    assert cli([command, *argv, *(a for f, (v, _, _) in flags.items() for a in (f, v))]) == 0
    capsys.readouterr()
    resolved = json.loads((tmp_path / (artifact + ".config.json")).read_text())
    for flag, (_, path, value) in flags.items():
        section, key = path.split(".")
        assert resolved[section][key] == value, flag


def test_missing_and_corrupt_model_exit_code_two(cli_model, tmp_path, capsys):
    assert cli(["eval", "--model", str(tmp_path / "ghost.eebnn"), *DATASET_ARGS,
                "--delta", "0.5"]) == 2
    corrupt = tmp_path / "corrupt.eebnn"
    raw = bytearray(cli_model.read_bytes())
    raw[-1] ^= 0xFF
    corrupt.write_bytes(raw)
    assert cli(["eval", "--model", str(corrupt), *DATASET_ARGS, "--delta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "checksum" in err


def _rewrite_header(raw: bytes, edit) -> bytes:
    """The container with its JSON header passed through `edit`."""
    n = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + n])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    return raw[:6] + len(new).to_bytes(4, "little") + new + raw[10 + n:]


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("blobs"),
    lambda h: h["blobs"][0].update(shape=[3, 3]),
    lambda h: h["arch"].update(family="resnet"),
], ids=["no-blobs", "blob-shape", "unknown-family"])
def test_malformed_model_exit_code_two(cli_model, tmp_path, capsys, edit):
    victim = tmp_path / "malformed.eebnn"
    victim.write_bytes(_rewrite_header(cli_model.read_bytes(), edit))
    assert cli(["bench", "--model", str(victim), "--repeats", "1"]) == 2
    assert str(victim) in capsys.readouterr().err


def test_short_wav_in_manifest_exit_code_two(cli_model, tmp_path, capsys):
    frontend.write_wav(tmp_path / "short.wav", np.zeros(100, dtype=np.float32), 16000)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\nshort.wav,2,test\n")
    assert cli(["eval", "--model", str(cli_model), "--manifest", str(manifest)]) == 2
    assert "short.wav" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "features"])
def test_short_wav_exit_code_two(cli_model, tmp_path, capsys, command):
    """A WAV shorter than one analysis window is a data error naming the file."""
    wav = tmp_path / "short.wav"
    frontend.write_wav(wav, np.zeros(100, dtype=np.float32), 16000)
    args = {"bench": ["--model", str(cli_model)], "features": ["--out", str(tmp_path / "f.npy")]}
    assert cli([command, "--wav", str(wav), *args[command]]) == 2
    assert str(wav) in capsys.readouterr().err


def test_manifest_row_missing_fields_exit_code_two(cli_model, tmp_path, capsys):
    frontend.write_wav(tmp_path / "a.wav", np.zeros(16000, dtype=np.float32), 16000)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\na.wav\n")
    assert cli(["eval", "--model", str(cli_model), "--manifest", str(manifest)]) == 2
    assert f"{manifest} line 2: missing field label, split" in capsys.readouterr().err


@pytest.mark.parametrize("damage,message", [
    (lambda raw: raw[:-1], "audio data ends mid-sample"),
    (lambda raw: raw[:-2], "audio data holds 15999 samples, its header declares 16000"),
    (lambda raw: raw[:20], "file ends inside the WAV header"),
], ids=["mid-sample", "short-data", "in-header"])
@pytest.mark.parametrize("command", ["bench", "features", "manifest"])
def test_damaged_wav_exit_code_two(cli_model, tmp_path, capsys, command, damage, message):
    """A WAV cut short is a data error that names the file and says what is wrong."""
    wav = tmp_path / "cut.wav"
    frontend.write_wav(wav, np.zeros(16000, dtype=np.float32), 16000)
    wav.write_bytes(damage(wav.read_bytes()))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\ncut.wav,0,test\n")
    argv = {"bench": ["bench", "--model", str(cli_model), "--wav", str(wav)],
            "features": ["features", "--wav", str(wav), "--out", str(tmp_path / "f.npy")],
            "manifest": ["eval", "--model", str(cli_model), "--manifest", str(manifest)]}
    assert cli(argv[command]) == 2
    assert f"{wav}: {message}" in capsys.readouterr().err


def test_missing_wav_exit_code_two(cli_model, tmp_path, capsys):
    assert cli(["features", "--wav", str(tmp_path / "none.wav"),
                "--out", str(tmp_path / "f.npy")]) == 2
    capsys.readouterr()


def test_public_names_resolve():
    assert [n for n in eebnn.__all__ if not hasattr(eebnn, n)] == []


def test_no_command_prints_help(capsys):
    assert cli([]) == 1
    assert "train" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["train", *DATASET_ARGS, "--out", "m.eebnn"], "no architecture given"),
    (["train", *TRAIN_ARGS, "--widths", "4,x", "--out", "m.eebnn"],
     "expected comma-separated int values, got '4,x'"),
    (["bench", "--model", "{model}", "--repeats", "0"], "--repeats must be >= 1"),
], ids=["no-arch", "bad-int-list", "zero-repeats"])
def test_usage_error_exit_code_one(cli_model, tmp_path, capsys, argv, message):
    argv = [str(tmp_path / a) if a.endswith(".eebnn") else a.format(model=cli_model) for a in argv]
    assert cli(argv) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.eebnn").exists()


def test_per_class_reports_a_class_without_test_clips(cli_model, tmp_path, capsys):
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(16000) / 16000)
    frontend.write_wav(tmp_path / "a.wav", tone.astype(np.float32), 16000)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\na.wav,0,test\na.wav,1,test\na.wav,2,train\n")
    assert cli(["per-class", "--model", str(cli_model), "--manifest", str(manifest),
                "--out", str(tmp_path / "pc.csv")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("class 0: mean_exit")
    assert printed[1].startswith("class 1: mean_exit")
    assert printed[2] == "class 2: no test samples"


@pytest.mark.parametrize("module", ["eebnn", "eebnn.cli"])
def test_python_dash_m_runs_the_cli(module):
    # the package's own directory first, so an uninstalled checkout runs too
    path = [str(Path(eebnn.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: eebnn")
