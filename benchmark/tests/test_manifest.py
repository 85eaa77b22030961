"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
import re
from pathlib import Path

import run
import tracing
import workloads

MANIFEST = json.loads(
    (Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmark"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    names = [w["name"] for w in MANIFEST["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    seen = set()
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.match(m["name"]) and m["name"] not in seen
        seen.add(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_end_to_end_names_and_units():
    class Fake:
        latencies = [0.1, 0.2]
    rounds = [run.Round(False, 2, 0.4, 0.3, 0.35)]
    printed = run.end_to_end(Fake, rounds, 1.0, 1.0)
    assert {k: u for k, (_, u) in printed.items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}


def test_per_layer_names_and_units():
    tracer = tracing.Tracer()
    printed = tracing.layer_metrics(tracer, [1.0], [1.0], 0)
    assert {k: u for k, (_, u) in printed.items()} == {
        m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
