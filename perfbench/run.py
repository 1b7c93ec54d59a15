"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

`--trace 0` times the workload untraced and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced operations, `--seconds` of each,
and reports the per-layer metrics from the traced ones. Details (run
metadata, latency percentiles, absent callables, check failures) go to
`perfbench/out/`; the last line of standard output is the result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import env  # noqa: E402

env.pin_threads()

SETUP_REPEATS = 5
OUT_DIR = env.BENCH_DIR / "out"


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(wl, seconds: float, trace: bool):
    """Run operations until each tracing mode has `seconds` of timed work.

    With tracing, operations alternate untraced/traced; wrappers are
    installed around a traced operation only, outside its timed region.
    Peak RSS is read once the workload's fixed work is done, before any
    correctness check has allocated memory of its own.
    """
    import layer_trace
    import spans

    tracer = spans.Tracer() if trace else None
    modes = (False, True) if trace else (False,)
    busy = dict.fromkeys(modes, 0.0)
    peak_rss_mb = None
    k = 0
    while min(busy.values()) < seconds or not wl.enough():
        traced = modes[k % len(modes)]
        k += 1
        call, models = wl.prepare()
        if traced:
            layer_trace.install(tracer, wl.eebnn, models)
        t0 = time.perf_counter()
        result = call()
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        busy[traced] += dt
        wl.record(result, dt, traced)
        if peak_rss_mb is None and wl.enough():
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tracer, peak_rss_mb


def timed_setup(wl, trace: bool):
    """Median seconds of SETUP_REPEATS set-ups, plus load_model ms when traced.

    Each set-up imports the package afresh (numpy stays loaded), loads the
    fixture and warms up; the workload keeps the package of the last one.
    """
    import layer_trace
    import spans

    times, loads = [], []
    for _ in range(SETUP_REPEATS):
        tracer = spans.Tracer() if trace else None
        t0 = time.perf_counter()
        wl.eebnn = env.import_eebnn(fresh=True)
        if tracer is not None:
            layer_trace.install(tracer, wl.eebnn)
        wl.setup()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            loads += [s.duration for s in tracer.spans if s.name == "modelio.load_model"]
    return statistics.median(times), 1000.0 * statistics.median(loads) if loads else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    eebnn = env.import_eebnn()
    import layer_trace
    import workloads

    process_import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](eebnn, args.seed)
    wl.make_inputs()
    setup_s, load_ms = timed_setup(wl, bool(args.trace))
    tracer, peak_rss_mb = measure(wl, args.seconds, bool(args.trace))

    attempted, failed, messages = wl.check()
    e2e = wl.metrics(traced=False)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": wl.unit,
        "meta": env.run_metadata(seed=args.seed, fixture_sha256=workloads.FIXTURE_SHA256),
        "process_import_s": process_import_s,
        "latency": e2e.pop("_latency"), "operations": len(wl.ops),
        "failures": messages[:50],
    }
    if args.trace:
        traced = wl.metrics(traced=True)
        detail["traced_latency"] = traced.pop("_latency")
        overhead = 1.0 - traced["throughput_sps"] / e2e["throughput_sps"]
        values = layer_trace.per_layer_metrics(tracer, wl.samples(traced=True), load_ms, overhead)
        units = layer_trace.UNITS
        detail["absent"] = sorted(tracer.absent)
        detail["untraced_throughput_sps"] = e2e["throughput_sps"]
    else:
        values = dict(e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        units = workloads.E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    for msg in messages[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(wl.ops)} operations, {attempted} {wl.unit}s, "
          f"{failed} failed; details in {out.relative_to(env.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (env.SetupError, ImportError) as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        sys.exit(2)
    except Exception:  # report and fail without printing a result line
        traceback.print_exc()
        sys.exit(1)
