"""System-level simulation: wiring, results, and experiment running.

Sub-modules: :mod:`~repro.sim.system` (the epoch loop),
:mod:`~repro.sim.runner` (serial orchestration),
:mod:`~repro.sim.parallel` (the one job shape and its process-pool
fan-out), :mod:`~repro.sim.service` / :mod:`~repro.sim.store` (the
resumable sweep service),
:mod:`~repro.sim.cache` (content-keyed on-disk artifact cache),
:mod:`~repro.sim.telemetry` (per-epoch JSONL streams),
:mod:`~repro.sim.results` / :mod:`~repro.sim.serialize`.
"""

from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.parallel import (
    JobSpec,
    Outcome,
    run_specs,
    run_sweep,
)
from repro.sim.results import (
    ENERGY_COMPONENTS,
    EpochSample,
    PolicyComparison,
    RunResult,
    compare_to_baseline,
)
from repro.sim.runner import POLICY_NAMES, ExperimentRunner, RunnerSettings
from repro.sim.system import SystemSimulator
from repro.sim.telemetry import (
    JsonlTelemetry,
    ListTelemetry,
    TelemetrySink,
    load_telemetry,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ENERGY_COMPONENTS",
    "EpochSample",
    "ExperimentCache",
    "ExperimentRunner",
    "JobSpec",
    "JsonlTelemetry",
    "ListTelemetry",
    "Outcome",
    "POLICY_NAMES",
    "PolicyComparison",
    "RunResult",
    "RunnerSettings",
    "SystemSimulator",
    "TelemetrySink",
    "compare_to_baseline",
    "load_telemetry",
    "run_specs",
    "run_sweep",
]
