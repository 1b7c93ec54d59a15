"""The benchmark's workloads, their inputs, correctness checks and metrics.

Each workload makes its inputs from the seed before anything is timed, then
hands the program only the generated clips. One operation is one call into
the program; `Workload.prepare` builds its arguments untimed and returns
the call to time plus the models it touches (so the traced run can wrap
their blocks and heads). `record` keeps what the checks and metrics need.
"""

from __future__ import annotations

import collections
import math
import statistics

import numpy as np

import env

FIXTURE = env.BENCH_DIR / "fixture" / "toy_quicknet.eebnn"
FIXTURE_SHA256 = "bc5be82ff7b768ad821eea22e56161a3dd8de429c4d38ab96e98e94a47f4253f"
FIXTURE_DATA_SEED = 20  # make_fixture.RECIPE["data_seed"]; no workload generates it

N_CLASSES = 6
DELTA = 0.5  # entropy threshold of the stream rule and of every decision metric
SWEEP_DELTAS = (0.1, 0.25, 0.5, 0.75, 1.0)
FIXED_EXIT = 5  # the final exit, whose accuracy is the sweep baseline
# Decades, so a run's sample count sits far from the boundary where the
# reported percentile changes (1000 samples for p99, 10000 for p99.9).
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
CHECK_BATCH = 8  # small, so the checks stay far below the program's peak memory

# (name, unit) of the end-to-end metrics, reported by every workload.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_sps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "mean_macs": "MAC",
    "mean_exit": "exit",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def data_seed(seed: int, workload: str, part: int) -> int:
    """Data seed for one part of a workload's inputs, never the fixture's."""
    words = [seed % 2**64, part, *workload.encode()]
    derived = int(np.random.SeedSequence(words).generate_state(1)[0])
    return derived if derived != FIXTURE_DATA_SEED else derived + 1


class FixtureError(env.SetupError):
    """The fixture model is missing or is not the committed file."""


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it.

    With fewer than 2 * TAIL_MIN_BEYOND samples no ladder percentile
    qualifies and the tail is the maximum (percentile 100).
    """
    best = 100.0
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def latency_summary(ms: list[float]) -> dict:
    p = tail_percentile(len(ms))
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "tail_ms": float(np.percentile(ms, p)),
        "tail_percentile": p,
        "samples": len(ms),
    }


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def expected_decision(probs: list[np.ndarray], delta: float, exit_costs, head_macs) -> dict:
    """Entropy-rule decision for one sample from its per-exit distributions."""
    trail = []
    for e, p in enumerate(probs, start=1):
        trail.append(entropy(p))
        if trail[-1] < delta:
            break
    e = len(trail)
    return {
        "exit_index": e,
        "prediction": int(np.argmax(probs[e - 1])),
        "trail": tuple(trail),
        "macs": int(exit_costs[e - 1]) + int(sum(head_macs[: e - 1])),
    }


def record_mismatch(rec, want: dict) -> str | None:
    """Which field of an ExitRecord disagrees with the expected decision, if any."""
    for field in ("exit_index", "prediction", "trail", "macs"):
        got = getattr(rec, field)
        if field == "trail":
            got = tuple(got)
        if got != want[field]:
            return f"{field}: got {got}, expected {want[field]}"
    return None


def float_route_probs(eebnn, model, feats: np.ndarray) -> list[list[np.ndarray]]:
    """Per-sample, per-exit distributions from the batched float route."""
    mode = eebnn.layers.Mode(train=False)
    out = []
    for lo in range(0, len(feats), CHECK_BATCH):
        xb = np.asarray(feats[lo:lo + CHECK_BATCH], dtype=np.float64)[..., None]
        probs = [softmax(lg) for lg in model.forward_train(xb, mode)]
        out.extend([p[i] for p in probs] for i in range(xb.shape[0]))
    return out


def load_fixture(eebnn):
    if not FIXTURE.is_file():
        raise FixtureError(f"fixture model not found at {FIXTURE}")
    digest = env.sha256_file(FIXTURE)
    if digest != FIXTURE_SHA256:
        raise FixtureError(f"fixture {FIXTURE} has sha256 {digest}, expected {FIXTURE_SHA256}")
    model, _ = eebnn.modelio.load_model(FIXTURE)
    return model


def warm_up(eebnn, model, pcm) -> None:
    """One pass through every exit, which fills the lazy packed-weight caches."""
    feat = eebnn.frontend.featurize(pcm)
    eebnn.runtime.infer_early_exit(model, feat, eebnn.runtime.DecisionRule(threshold=0.0))


class Workload:
    name = ""
    unit = "sample"

    def __init__(self, eebnn, seed: int):
        self.eebnn = eebnn
        self.seed = seed
        self.ops: list[dict] = []  # one entry per timed operation

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first operation; repeatable."""
        raise NotImplementedError

    def prepare(self):
        """(call, models) for the next operation; untimed."""
        raise NotImplementedError

    def record(self, result, seconds: float, traced: bool) -> None:
        raise NotImplementedError

    def enough(self) -> bool:
        """Whether the run has covered the work its fixed metrics need."""
        return bool(self.ops)

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over all recorded operations."""
        raise NotImplementedError

    def metrics(self, traced: bool) -> dict:
        """End-to-end metrics of the operations run with the given tracing."""
        raise NotImplementedError

    def samples(self, traced: bool) -> int:
        return sum(op["n"] for op in self.ops if op["traced"] == traced)


# --- stream -------------------------------------------------------------------------


class Stream(Workload):
    """One caller, batch 1: WAV -> log-mel -> early-exit decision per clip."""

    name = "stream"
    unit = "clip"
    PER_CLASS_CHUNK = 10  # clips per class per generated chunk (half easy, half hard)
    FIXED_CLIPS = 600  # mean_macs, mean_exit and accuracy cover the first clips only
    VERIFY_EVERY = 500  # clips between checks; rare, so few timed clips follow one

    def make_inputs(self) -> None:
        self._unchecked: list[tuple[int, np.ndarray]] = []
        self._failures: list[str] = []
        self._pending: collections.deque = collections.deque()
        self._chunk = 0
        self._generate_chunk()
        self.warm_pcm = self._pending[0][0]

    def _generate_chunk(self) -> None:
        """The next chunk of the seeded clip sequence, shuffled."""
        c = self._chunk
        ds = self.eebnn.data.synth_dataset(N_CLASSES, self.PER_CLASS_CHUNK, "mixed",
                                           seed=data_seed(self.seed, self.name, c))
        rng = np.random.default_rng(data_seed(self.seed, "stream-order", c))
        order = rng.permutation(len(ds.samples))
        self._pending.extend((ds.samples[o].pcm, ds.samples[o].label) for o in order)
        self._chunk += 1

    def setup(self) -> None:
        self.model = load_fixture(self.eebnn)
        self.rule = self.eebnn.runtime.DecisionRule(kind="entropy", threshold=DELTA)
        warm_up(self.eebnn, self.model, self.warm_pcm)

    def prepare(self):
        if not self._pending:
            self._generate_chunk()
        pcm, label = self._pending.popleft()  # each clip is used once
        frontend, runtime = self.eebnn.frontend, self.eebnn.runtime
        model, rule = self.model, self.rule

        def call():
            feat = frontend.featurize(pcm)
            return feat, runtime.infer_early_exit(model, feat, rule, label=label)

        return call, [model]

    def record(self, result, seconds: float, traced: bool) -> None:
        feat, rec = result
        self.ops.append({"n": 1, "s": seconds, "traced": traced, "rec": rec})
        self._unchecked.append((len(self.ops) - 1, np.asarray(feat.data)))
        if len(self._unchecked) >= self.VERIFY_EVERY and len(self.ops) > self.FIXED_CLIPS:
            self._verify()

    def _verify(self) -> None:
        """Check pending records against the float route, then drop their features.

        Checking as the run goes keeps memory flat. The first check waits
        until the fixed clips are done, when the run reads its peak RSS.
        """
        m = self.model
        head_macs = [h.macs for h in m.exits]
        idx, feats = zip(*self._unchecked)
        self._unchecked.clear()
        for i, p in zip(idx, float_route_probs(self.eebnn, m, np.stack(feats))):
            rec = self.ops[i]["rec"]
            bad = record_mismatch(rec, expected_decision(p, DELTA, m.exit_costs, head_macs))
            if bad is None and rec.confidence != rec.trail[-1]:
                bad = "confidence is not the last trail entry"
            if bad:
                self._failures.append(f"clip {i}: {bad}")

    def enough(self) -> bool:
        return len(self.ops) >= self.FIXED_CLIPS

    def check(self):
        if self._unchecked:
            self._verify()
        return len(self.ops), len(self._failures), list(self._failures)

    def metrics(self, traced: bool) -> dict:
        ops = [op for op in self.ops if op["traced"] == traced]
        ms = [1000.0 * op["s"] for op in ops]
        lat = latency_summary(ms)
        fixed = [op["rec"] for op in self.ops[: self.FIXED_CLIPS]]
        return {
            "throughput_sps": len(ops) / sum(op["s"] for op in ops),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "mean_macs": statistics.fmean(r.macs for r in fixed),
            "mean_exit": statistics.fmean(r.exit_index for r in fixed),
            "accuracy": sum(r.prediction == r.label for r in fixed) / len(fixed),
            "_latency": lat,
        }


# --- offline-eval -------------------------------------------------------------------


class OfflineEval(Workload):
    """The work behind `eebnn sweep`: five thresholds plus the per-exit table.

    Every operation evaluates the test split of its own freshly generated
    dataset; the decision metrics cover the first FIXED_OPS datasets.
    """

    name = "offline-eval"
    unit = "test clip"
    PER_CLASS = 40  # 48 test clips per dataset
    FIXED_OPS = 4

    def make_inputs(self) -> None:
        self._made = 0
        self._next = self._dataset()

    def _dataset(self):
        ds = self.eebnn.data.synth_dataset(N_CLASSES, self.PER_CLASS, "mixed",
                                           seed=data_seed(self.seed, self.name, self._made))
        self._made += 1
        return ds

    def setup(self) -> None:
        self.model = load_fixture(self.eebnn)
        warm_up(self.eebnn, self.model, self._next.samples[0].pcm)

    def prepare(self):
        data, evaluation = self.eebnn.data, self.eebnn.evaluation
        model = self.model
        ds = self._next if self._next is not None else self._dataset()
        self._next = None

        def call():
            bank = data.FeatureBank(ds, n_frames=model.spec.input_shape[0])
            sw = evaluation.sweep(model, ds, SWEEP_DELTAS, bank=bank)
            table = evaluation.exit_generalization_table(model, ds, bank=bank)
            return sw, table

        return call, [model]

    def record(self, result, seconds: float, traced: bool) -> None:
        sw, table = result
        self.ops.append({"n": table["n_samples"], "s": seconds, "traced": traced,
                         "sweep": sw, "table": table})

    def enough(self) -> bool:
        return len(self.ops) >= self.FIXED_OPS

    def check(self):
        failed, msgs = 0, []
        for k, op in enumerate(self.ops):
            sw, table, n = op["sweep"], op["table"], op["n"]
            op_bad = []
            for r in sw.rows:
                if abs(sum(r.fractions) - 1.0) > 1e-9:
                    op_bad.append(f"delta {r.delta}: exit fractions sum to {sum(r.fractions)}")
            if sw.baseline_accuracy != table["multi_exit"][FIXED_EXIT - 1]:
                op_bad.append(f"baseline accuracy {sw.baseline_accuracy} != float route exit-5 "
                              f"accuracy {table['multi_exit'][FIXED_EXIT - 1]}")
            if op_bad:
                failed += n
                msgs.extend(f"op {k}: {b}" for b in op_bad)
                continue
            per_delta = [sw.records[d] for d in sorted(sw.records)]
            for i in range(n):
                exits = [rs[i].exit_index for rs in per_delta]
                if any(b > a for a, b in zip(exits, exits[1:])):
                    failed += 1
                    msgs.append(f"op {k} clip {i}: exits {exits} increase with delta")
        return sum(op["n"] for op in self.ops), failed, msgs

    def metrics(self, traced: bool) -> dict:
        ops = [op for op in self.ops if op["traced"] == traced]
        lat = latency_summary([1000.0 * op["s"] for op in ops])
        recs = [r for op in self.ops[: self.FIXED_OPS] for r in op["sweep"].records[DELTA]]
        return {
            "throughput_sps": statistics.median(op["n"] / op["s"] for op in ops),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "mean_macs": statistics.fmean(r.macs for r in recs),
            "mean_exit": statistics.fmean(r.exit_index for r in recs),
            "accuracy": sum(r.prediction == r.label for r in recs) / len(recs),
            "_latency": lat,
        }


# --- train --------------------------------------------------------------------------


class Train(Workload):
    """`training.train_loop` with its per-epoch diagnostics, fine-tuning the fixture.

    Training starts from the fixture, itself the product of a seeded init,
    so that the trained model's decisions are a steady guard: two epochs
    from a fresh init leave every exit at chance level. The cost of a step
    does not depend on the starting weights.
    """

    name = "train"
    unit = "training sample"
    PER_CLASS = 30  # 144 training clips, 36 test clips
    HELD_OUT_PER_CLASS = 40  # 240 clips for the decision metrics
    EPOCHS = 2
    SHUFFLE_SEED = 1

    def make_inputs(self) -> None:
        data = self.eebnn.data
        self.dataset = data.synth_dataset(N_CLASSES, self.PER_CLASS, "mixed",
                                          seed=data_seed(self.seed, self.name, 0))
        self.n_train = sum(s.split == "train" for s in self.dataset.samples)
        self.held_out = data.synth_dataset(N_CLASSES, self.HELD_OUT_PER_CLASS, "mixed",
                                           seed=data_seed(self.seed, self.name, 1)).samples

    def setup(self) -> None:
        model = load_fixture(self.eebnn)
        xb = np.stack([self.eebnn.frontend.featurize(s.pcm).data for s in self.held_out[:2]])
        model.forward_train(xb[..., None].astype(np.float64), self.eebnn.layers.Mode(train=False))

    def prepare(self):
        training = self.eebnn.training
        model, ds = load_fixture(self.eebnn), self.dataset
        cfg = training.TrainConfig(optimizer="adam", epochs=self.EPOCHS, batch_size=32,
                                   lr=0.003, seed=self.SHUFFLE_SEED)

        def call():
            return model, training.train_loop(model, ds, cfg)

        return call, [model]

    def record(self, result, seconds: float, traced: bool) -> None:
        model, history = result
        self.ops.append({"n": self.EPOCHS * self.n_train, "s": seconds, "traced": traced,
                         "model": model, "history": history})

    @staticmethod
    def _signature(op) -> tuple:
        return tuple((h["loss"], tuple(h["exit_losses"]), tuple(h["train_acc"]),
                      tuple(h["test_acc"])) for h in op["history"])

    def check(self):
        failed, msgs = 0, []
        first = self._signature(self.ops[0]) if self.ops else None
        for k, op in enumerate(self.ops):
            losses = [h["loss"] for h in op["history"]]
            bad = []
            if len(losses) != self.EPOCHS or not all(math.isfinite(x) for x in losses):
                bad.append(f"losses {losses} are not {self.EPOCHS} finite values")
            elif not losses[-1] < losses[0]:
                bad.append(f"last-epoch loss {losses[-1]} is not below the first {losses[0]}")
            if not all(np.isfinite(arr).all() for _, _, _, arr, _ in op["model"].named_params()):
                bad.append("non-finite parameters")
            if self._signature(op) != first:
                bad.append("history differs from the first operation")
            if bad:
                failed += op["n"]
                msgs.extend(f"op {k}: {b}" for b in bad)
        return sum(op["n"] for op in self.ops), failed, msgs

    def metrics(self, traced: bool) -> dict:
        ops = [op for op in self.ops if op["traced"] == traced]
        lat = latency_summary([1000.0 * op["s"] for op in ops])
        model = self.ops[0]["model"]
        feats = np.stack([self.eebnn.frontend.featurize(s.pcm).data for s in self.held_out])
        head_macs = [h.macs for h in model.exits]
        dec = [expected_decision(p, DELTA, model.exit_costs, head_macs)
               for p in float_route_probs(self.eebnn, model, feats)]
        return {
            "throughput_sps": statistics.median(op["n"] / op["s"] for op in ops),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "mean_macs": statistics.fmean(d["macs"] for d in dec),
            "mean_exit": statistics.fmean(d["exit_index"] for d in dec),
            "accuracy": sum(d["prediction"] == s.label
                            for d, s in zip(dec, self.held_out)) / len(dec),
            "_latency": lat,
        }


WORKLOADS = {w.name: w for w in (Stream, OfflineEval, Train)}
