"""Train the benchmark's fixture model and write it as an .eebnn file.

The recipe is the acceptance suite's desk recipe: toy quicknet, 6 classes x
170 mixed-tier clips from data seed 20, model seed 7, Adam, 25 epochs,
batch 32, lr 0.003, shuffle seed 1. It is deterministic with one BLAS
thread, so re-running it reproduces the committed file byte for byte.

    python3 perfbench/make_fixture.py [--out perfbench/fixture/toy_quicknet.eebnn]

After re-training, update FIXTURE_SHA256 in perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import time

import env

env.pin_threads()

RECIPE = {
    "family": "quicknet", "n_classes": 6, "per_class": 170, "difficulty": "mixed",
    "data_seed": 20, "model_seed": 7, "optimizer": "adam", "epochs": 25,
    "batch_size": 32, "lr": 0.003, "train_seed": 1,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(env.BENCH_DIR / "fixture" / "toy_quicknet.eebnn"))
    args = ap.parse_args(argv)
    env.import_eebnn()
    from eebnn import arch, data, modelio, training

    r = RECIPE
    t0 = time.perf_counter()
    ds = data.synth_dataset(r["n_classes"], r["per_class"], r["difficulty"], seed=r["data_seed"])
    model = arch.build(arch.toy_spec(r["family"], n_classes=r["n_classes"]), seed=r["model_seed"])
    cfg = training.TrainConfig(optimizer=r["optimizer"], epochs=r["epochs"],
                               batch_size=r["batch_size"], lr=r["lr"], seed=r["train_seed"])
    history = training.train_loop(
        model, ds, cfg, progress=lambda rec: print(
            f"epoch {rec['epoch']:2d} loss {rec['loss']:.4f} "
            f"test_acc {rec['test_acc'][-1]:.3f} ({rec['seconds']:.1f}s)", flush=True))
    meta = {"recipe": r, "final_test_acc": history[-1]["test_acc"]}
    modelio.save_model(model, args.out, meta=meta)
    print(f"wrote {args.out} in {time.perf_counter() - t0:.0f}s, "
          f"sha256 {env.sha256_file(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
