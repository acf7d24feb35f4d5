"""Golden snapshot of the three frequency searches.

``tests/golden/search_results.json`` pins, exactly, what the searches
that price candidates beyond the MemScale ladder decide and what their
decisions cost:

* the power-cap sweep ``cap_specs(MIXES, CAP_FRACTIONS)`` and the
  multi-domain sweep ``multidomain_specs(MIXES, MD_FRACTIONS)`` at
  cores=4, instructions_per_core=300000, seed=2011 (serial, no cache):
  each job's serialized ``RunResult`` and ``PolicyComparison``, its
  kind extras (cap ledger, multi-domain summary) and, per epoch, the
  fields of the telemetry record its governor decides
  (:data:`DECISION_FIELDS`). Most of these epochs pick a per-channel
  candidate, so the joint search is pinned, not just its global ladder;
* ``PerChannelMemScaleGovernor`` on the channel-skewed workload of
  ``benchmarks/bench_ablation_per_channel.py``, with its
  ``per_channel_drops``.

The rules are ``test_golden_results.py``'s: exact ``==`` on the JSON
round-trip, a field-level diff on failure, and regeneration (see
``_regenerate``) only for an intentional behavior change, with
``CACHE_FORMAT`` bumped in the same commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.bench_ablation_per_channel import run_policy, skewed_workload
from repro.config import scaled_config
from repro.sim.cache import CACHE_FORMAT
from repro.sim.parallel import Outcome, cap_specs, multidomain_specs, run_specs
from repro.sim.runner import RunnerSettings
from repro.sim.serialize import comparison_to_dict, run_result_to_dict
from tests.conftest import field_diff, jsonify

GOLDEN_PATH = Path(__file__).parent / "golden" / "search_results.json"

SETTINGS = RunnerSettings(cores=4, instructions_per_core=300_000, seed=2011)
MIXES = ("MID1", "MEM4")
CAP_FRACTIONS = (0.9, 0.7)
MD_FRACTIONS = (0.8, 0.65)
SPECS = (cap_specs(MIXES, CAP_FRACTIONS)
         + multidomain_specs(MIXES, MD_FRACTIONS))

#: The epoch telemetry fields a cap or multi-domain governor decides:
#: the chosen point's bus clock, predicted CPI and power, feasibility,
#: fairness and (multi-domain only) the core point and budget split.
DECISION_FIELDS = ("bus_mhz", "budget_w", "predicted_cpi",
                   "predicted_power_w", "cap_feasible", "min_perf_norm",
                   "core_freq_mhz", "core_power_w", "domain_budget_split")


def _search_runs(telemetry_dir: Path):
    outcomes = run_specs(SPECS, settings=SETTINGS, jobs=1, cache_dir=None,
                         telemetry_dir=telemetry_dir)
    runs = []
    for o in outcomes:
        assert isinstance(o, Outcome), o.summary()
        records = [json.loads(line) for line in
                   Path(o.telemetry_path).read_text().splitlines()]
        runs.append({
            "label": o.spec.label,
            "result": run_result_to_dict(o.result),
            "comparison": comparison_to_dict(o.comparison),
            "extras": o.extras,
            "decisions": [{f: r[f] for f in DECISION_FIELDS}
                          for r in records if r["kind"] == "epoch"],
        })
    return jsonify(runs)


def _per_channel_run():
    config = scaled_config().with_cpu(cores=8)
    result, comparison, drops = run_policy(
        config, skewed_workload(config), per_channel=True)
    return jsonify({"result": run_result_to_dict(result),
                    "comparison": comparison_to_dict(comparison),
                    "per_channel_drops": drops})


def _regenerate(telemetry_dir):  # pragma: no cover - manual tool
    """Rewrite the snapshot (run via ``python -c`` with a scratch
    telemetry directory after an intentional behavior change; bump
    CACHE_FORMAT in the same commit)."""
    golden = {"cache_format": CACHE_FORMAT,
              "searches": _search_runs(Path(telemetry_dir)),
              "per_channel": _per_channel_run()}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def searches(tmp_path_factory):
    return _search_runs(tmp_path_factory.mktemp("search_telemetry"))


def _assert_same(got, want, what):
    mismatches: list = []
    field_diff(what, got, want, mismatches)
    assert not mismatches, (
        f"{len(mismatches)} field(s) drifted from the search snapshot "
        f"(regenerate it and bump CACHE_FORMAT if intentional):\n  "
        + "\n  ".join(mismatches[:20]))


def test_snapshot_tracks_cache_format(golden):
    assert golden["cache_format"] == CACHE_FORMAT


def test_search_job_matrix(golden):
    labels = [r["label"] for r in golden["searches"]]
    assert labels == [s.label for s in SPECS]


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_search_matches_golden_exactly(golden, searches, index):
    want = golden["searches"][index]
    got = searches[index]
    assert got["label"] == want["label"]
    assert got["decisions"], "every job decides at least one epoch"
    _assert_same(got, want, want["label"])


def test_per_channel_matches_golden_exactly(golden):
    want = golden["per_channel"]
    assert want["per_channel_drops"] > 0
    _assert_same(_per_channel_run(), want, "per_channel")
