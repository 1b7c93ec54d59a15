"""BENCHMARK.json names exactly what the code reports, within the format's limits."""

import json
import re

import env
import layer_trace
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_code():
    b = _bench()
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == workloads.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in b["per_layer"]] == layer_trace.PER_LAYER


def test_format_limits():
    b = _bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in b[k]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert 1 <= b["run_seconds"] <= 60 and len(b["per_layer"]) <= 128
