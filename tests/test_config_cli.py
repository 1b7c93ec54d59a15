"""Config plumbing and end-to-end CLI tests (in-process, tiny models)."""
import csv
import json

import numpy as np
import pytest

import eebnn
from eebnn import arch, config, data, frontend, modelio, runtime
from eebnn.cli import cli
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


def test_missing_wav_exit_code_two(cli_model, tmp_path, capsys):
    assert cli(["features", "--wav", str(tmp_path / "none.wav"),
                "--out", str(tmp_path / "f.npy")]) == 2
    capsys.readouterr()


def test_public_names_resolve():
    assert [n for n in eebnn.__all__ if not hasattr(eebnn, n)] == []


def test_no_command_prints_help(capsys):
    assert cli([]) == 1
    assert "train" in capsys.readouterr().out
