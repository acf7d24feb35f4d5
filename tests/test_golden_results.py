"""Golden-result snapshot: frozen full results of the smoke sweep.

``tests/golden/smoke_results.json`` pins the complete serialized
``RunResult`` and ``PolicyComparison`` of MID1 under MemScale, Static,
Fast-PD, Slow-PD and MemScale+Fast-PD (cores=4,
instructions_per_core=8000, seed=2011, serial, no cache) at the moment
the snapshot was taken. Any change to simulator arithmetic — timing,
counters, power, performance, policy — shows up here as a field-level
diff, which is far more diagnostic than an end-to-end savings drift.
The three powerdown policies are the only entries that power a rank
down, so they alone pin the EPDC counter, the tXP/tXPDLL exit penalty
and the perf model's powerdown term.

The snapshot is intentionally exact (``==`` on the JSON round-trip, no
tolerances): the simulator is deterministic, so the only legitimate way
this test fails is an intentional behavior change — regenerate the
snapshot (see ``_regenerate`` below) and bump ``CACHE_FORMAT`` in the
same commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.cache import CACHE_FORMAT
from repro.sim.parallel import run_sweep
from repro.sim.runner import RunnerSettings
from repro.sim.serialize import comparison_to_dict, run_result_to_dict
from tests.conftest import field_diff, jsonify

GOLDEN_PATH = Path(__file__).parent / "golden" / "smoke_results.json"

SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)
POLICIES = ("MemScale", "Static", "Fast-PD", "Slow-PD", "MemScale+Fast-PD")


def _current_runs():
    outcomes = run_sweep(["MID1"], list(POLICIES), settings=SETTINGS,
                         jobs=1, cache_dir=None)
    return [
        {"mix": o.mix, "policy": o.policy,
         "result": run_result_to_dict(o.result),
         "comparison": comparison_to_dict(o.comparison)}
        for o in outcomes
    ]


def _regenerate():  # pragma: no cover - manual tool
    """Rewrite the snapshot (run via ``python -c`` after an intentional
    behavior change; bump CACHE_FORMAT in the same commit)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    golden["cache_format"] = CACHE_FORMAT
    golden["runs"] = jsonify(_current_runs())
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return jsonify(_current_runs())


def test_snapshot_tracks_cache_format(golden):
    # The snapshot freezes simulator behavior; so does the cache format.
    # They must move together, or stale caches would survive a behavior
    # change the snapshot already acknowledges.
    assert golden["cache_format"] == CACHE_FORMAT


def test_golden_run_matrix(golden):
    pairs = [(r["mix"], r["policy"]) for r in golden["runs"]]
    assert pairs == [("MID1", p) for p in POLICIES]


@pytest.mark.parametrize("index,policy", list(enumerate(POLICIES)))
def test_results_match_golden_exactly(golden, current, index, policy):
    want = golden["runs"][index]
    got = current[index]
    assert got["policy"] == want["policy"] == policy
    mismatches: list = []
    field_diff("result", got["result"], want["result"], mismatches)
    field_diff("comparison", got["comparison"], want["comparison"], mismatches)
    assert not mismatches, (
        f"{len(mismatches)} field(s) drifted from the golden snapshot "
        f"(regenerate it and bump CACHE_FORMAT if intentional):\n  "
        + "\n  ".join(mismatches[:20]))


def test_headline_savings(golden):
    # The paper-facing numbers the README quotes, restated here so a
    # snapshot regeneration that silently degrades them gets noticed in
    # review even if the field-level diff is rubber-stamped.
    by_policy = {r["policy"]: r["comparison"] for r in golden["runs"]}
    assert by_policy["MemScale"]["memory_energy_savings"] == \
        pytest.approx(0.301, abs=5e-4)
    assert by_policy["MemScale"]["system_energy_savings"] == \
        pytest.approx(0.123, abs=5e-4)
    assert by_policy["Static"]["memory_energy_savings"] == \
        pytest.approx(0.373, abs=5e-4)
    assert by_policy["Static"]["system_energy_savings"] == \
        pytest.approx(0.165, abs=5e-4)
