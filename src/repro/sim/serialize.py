"""JSON serialization for run results and comparisons.

Long sweeps are expensive; these helpers let a harness persist every
:class:`RunResult` / :class:`PolicyComparison` and re-analyze later
without re-simulating. Timelines are included, numpy arrays are
converted to lists, and loading restores full objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.records import atomic_write
from repro.sim.results import EpochSample, PolicyComparison, RunResult

PathLike = Union[str, Path]

#: Format marker written into every file, checked on load.
FORMAT_VERSION = 1


def _sample_to_dict(sample: EpochSample) -> Dict:
    return {
        "time_ns": sample.time_ns,
        "bus_mhz": sample.bus_mhz,
        "app_cpi": dict(sample.app_cpi),
        "channel_util": [float(u) for u in sample.channel_util],
        "memory_power_w": sample.memory_power_w,
    }


def _sample_from_dict(data: Dict) -> EpochSample:
    return EpochSample(
        time_ns=data["time_ns"],
        bus_mhz=data["bus_mhz"],
        app_cpi=dict(data["app_cpi"]),
        channel_util=np.asarray(data["channel_util"], dtype=np.float64),
        memory_power_w=data["memory_power_w"],
    )


def run_result_to_dict(result: RunResult) -> Dict:
    """JSON-ready dictionary of a :class:`RunResult`."""
    return {
        "format": FORMAT_VERSION,
        "kind": "RunResult",
        "workload": result.workload,
        "governor": result.governor,
        "target_instructions": result.target_instructions,
        "wall_time_ns": result.wall_time_ns,
        "sim_time_ns": result.sim_time_ns,
        "core_apps": list(result.core_apps),
        "core_time_at_target_ns": [float(t)
                                   for t in result.core_time_at_target_ns],
        "energy_j": dict(result.energy_j),
        "timeline": [_sample_to_dict(s) for s in result.timeline],
        "transition_count": result.transition_count,
        "epochs": result.epochs,
    }


def run_result_from_dict(data: Dict) -> RunResult:
    _check(data, "RunResult")
    return RunResult(
        workload=data["workload"],
        governor=data["governor"],
        target_instructions=data["target_instructions"],
        wall_time_ns=data["wall_time_ns"],
        sim_time_ns=data["sim_time_ns"],
        core_apps=list(data["core_apps"]),
        core_time_at_target_ns=list(data["core_time_at_target_ns"]),
        energy_j=dict(data["energy_j"]),
        timeline=[_sample_from_dict(s) for s in data["timeline"]],
        transition_count=data["transition_count"],
        epochs=data["epochs"],
    )


def comparison_to_dict(cmp: PolicyComparison) -> Dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "PolicyComparison",
        "workload": cmp.workload,
        "governor": cmp.governor,
        "memory_energy_savings": cmp.memory_energy_savings,
        "system_energy_savings": cmp.system_energy_savings,
        "avg_cpi_increase": cmp.avg_cpi_increase,
        "worst_cpi_increase": cmp.worst_cpi_increase,
        "app_cpi_increase": dict(cmp.app_cpi_increase),
        "rest_power_w": cmp.rest_power_w,
        "energy_breakdown_j": dict(cmp.energy_breakdown_j),
        "baseline_breakdown_j": dict(cmp.baseline_breakdown_j),
    }


def comparison_from_dict(data: Dict) -> PolicyComparison:
    _check(data, "PolicyComparison")
    return PolicyComparison(
        workload=data["workload"],
        governor=data["governor"],
        memory_energy_savings=data["memory_energy_savings"],
        system_energy_savings=data["system_energy_savings"],
        avg_cpi_increase=data["avg_cpi_increase"],
        worst_cpi_increase=data["worst_cpi_increase"],
        app_cpi_increase=dict(data["app_cpi_increase"]),
        rest_power_w=data["rest_power_w"],
        energy_breakdown_j=dict(data["energy_breakdown_j"]),
        baseline_breakdown_j=dict(data["baseline_breakdown_j"]),
    )


def save_results(path: PathLike,
                 results: List[Union[RunResult, PolicyComparison]]) -> None:
    """Write a list of results/comparisons to a JSON file, atomically."""
    payload = []
    for item in results:
        if isinstance(item, RunResult):
            payload.append(run_result_to_dict(item))
        elif isinstance(item, PolicyComparison):
            payload.append(comparison_to_dict(item))
        else:
            raise TypeError(f"cannot serialize {type(item).__name__}")
    atomic_write(path, json.dumps(payload, indent=1))


def load_results(path: PathLike
                 ) -> List[Union[RunResult, PolicyComparison]]:
    """Inverse of :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    out: List[Union[RunResult, PolicyComparison]] = []
    for data in payload:
        kind = data.get("kind")
        if kind == "RunResult":
            out.append(run_result_from_dict(data))
        elif kind == "PolicyComparison":
            out.append(comparison_from_dict(data))
        else:
            raise ValueError(f"unknown record kind: {kind!r}")
    return out


def _check(data: Dict, kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(f"expected a {kind} record, got {data.get('kind')!r}")
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('format')!r}")
