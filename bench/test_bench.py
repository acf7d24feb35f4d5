"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench -q

A ``--quick`` pass of every workload, untraced and traced, feeds the
output checks; the rest test the tracer and the comparison rules
directly.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
DECLARED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=str(cwd),
                          timeout=170)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """{trace: (stdout, runs)} of a quick pass over every workload."""
    out = {}
    for trace in (0, 1):
        d = tmp_path_factory.mktemp(f"trace{trace}")
        proc = bench("--quick", "--seconds", "0.5", "--trace", str(trace),
                     "--out", str(d))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs = json.loads((d / "results.json").read_text())["runs"]
        out[trace] = (proc.stdout, runs)
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_pass_of_every_workload(quick, trace):
    _, runs = quick[trace]
    assert [r["workload"] for r in runs] == list(run.WORKLOADS)
    for r in runs:
        assert r["correct"], r["problems"]
        assert r["attempted"] >= 1 and r["failed"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_are_declared(quick, trace):
    stdout, _ = quick[trace]
    results = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    assert json.loads(stdout.splitlines()[-1]) == results[-1]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        metrics = result["metrics"]
        assert all(NAME.match(name) for name in metrics)
        assert {k: m["unit"] for k, m in metrics.items()} == DECLARED[trace]


def test_traced_and_untraced_digests_agree(quick):
    untraced = {r["workload"]: r["digest"] for r in quick[0][1]}
    traced = {r["workload"]: r["digest"] for r in quick[1][1]}
    assert untraced == traced
    assert all(untraced.values())


def test_traced_contrasts_on_quick_sizes(quick):
    metrics = {r["workload"]: {k: m["value"] for k, m in r["metrics"].items()}
               for r in quick[1][1]}
    assert metrics["sweep-cold"]["sim.telemetry.records"] > 0
    assert metrics["sweep-warm"]["sim.telemetry.records"] == 0
    assert metrics["sweep-warm"]["sim.cache.hit_ratio"] == 1.0
    assert metrics["run-ilp"]["memsim.events_fast_forwarded"] > 0


def test_spec_matches_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert DECLARED[0] == run.END_TO_END
    assert DECLARED[1] == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


def test_wrappers_restore_every_attribute():
    originals = {}
    for module, cls_name, attr, _, _ in layers.TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        originals[(cls, attr)] = cls.__dict__[attr]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(cls.__dict__[attr] is not original
                   for (cls, attr), original in originals.items())
    finally:
        tracer.remove()
    assert all(cls.__dict__[attr] is original
               for (cls, attr), original in originals.items())


def test_self_time_of_a_synthetic_span_tree():
    S = layers.Span
    spans = [
        S(0, "op", 0.0, 10.0, None, 0),
        S(1, "a", 1.0, 4.0, 0, 0),
        S(2, "a.child", 2.0, 3.0, 1, 0),
        S(3, "b", 5.0, 9.0, 0, 0),
        # overlaps its sibling and runs past its parent: covered once
        S(4, "c", 8.0, 12.0, 3, 0),
        S(5, "d", 8.5, 9.5, 3, 0),
    ]
    own = layers.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.0}


class Nested:
    def outer(self):
        return self.inner() + self.inner()

    @staticmethod
    def inner():
        return 1


def test_tracer_nests_spans_and_tags_ops():
    tracer = layers.Tracer()
    tracer.install([(__name__, "Nested", "outer", "outer", None),
                    (__name__, "Nested", "inner", "inner", None)])
    try:
        assert tracer.run_op(7, Nested().outer) == 2
    finally:
        tracer.remove()
    spans = {s.name: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(tracer.spans) == 4 and len(inner) == 2
    assert spans["outer"].parent == spans[layers.OP_SPAN].id
    assert all(s.parent == spans["outer"].id for s in inner)
    assert {s.op for s in tracer.spans} == {7}
    assert len({s.id for s in tracer.spans}) == 4


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "within"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
    ([10.0, 14.0, 7.0, 10.0], [10.5, 13.0, 8.0, 9.0], "lower", "unresolved"),
    ([10.0, 14.0, 7.0, 10.0], [20.0, 24.0, 17.0, 20.0], "lower", "worse"),
    ([5.0, 5.0], [5.0, 5.0], "higher", "within"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1) == expected


def _results(path: Path, seed: int, wall: float, digest: str) -> None:
    path.mkdir(parents=True)
    run_record = {"workload": "run-mem", "seed": seed, "digest": digest,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    (path / "results.json").write_text(json.dumps({"runs": [run_record]}))


def test_compare_merges_directories_and_checks_digests(tmp_path, capsys):
    for seed in (1, 2, 3):
        _results(tmp_path / "a" / str(seed), seed, 1.0 + seed / 100, "d")
        _results(tmp_path / "b" / str(seed), seed, 1.01 + seed / 100, "d")
    assert len(compare.load(tmp_path / "a")) == 3
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "within" in capsys.readouterr().out
    _results(tmp_path / "c" / "1", 1, 1.0, "other")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert "results_digest differs: run-mem seed 1" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "run-mem", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines()
                if line.startswith("{")]
