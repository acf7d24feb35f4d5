"""Shared infrastructure for the benchmark harness.

Each figure bench calls the function of :mod:`repro.sim.experiments`
that ``repro figure N`` calls, so both print numbers from one
definition. Those functions run through
:func:`repro.sim.parallel.run_specs`: worker processes plus the
content-keyed on-disk cache (``.repro_cache/`` by default — override
with ``REPRO_BENCH_CACHE``, or set it to the empty string to disable),
so traces and baselines survive across sessions. Figures that read the
same runs (5 and 6; 9, 10 and 11) share one call per session through
:func:`experiment`.

Scale control: set ``REPRO_BENCH_INSTR`` (instructions per core, default
120000) to trade fidelity for wall-clock time, and ``REPRO_BENCH_JOBS``
to set the worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.cpu.workloads import mix_names
from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.experiments import ExperimentResult
from repro.sim.parallel import default_jobs
from repro.sim.runner import ExperimentRunner, RunnerSettings

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTR", "120000"))
BENCH_SEED = 2011

#: On-disk artifact cache shared by all benches ("" disables it).
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", DEFAULT_CACHE_DIR) or None

#: Worker processes for the figure sweeps.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(default_jobs())))


def bench_settings(cores: int = 16) -> RunnerSettings:
    return RunnerSettings(cores=cores,
                          instructions_per_core=DEFAULT_INSTRUCTIONS,
                          seed=BENCH_SEED)


def bench_runner(config: Optional[SystemConfig] = None,
                 cores: int = 16) -> ExperimentRunner:
    """A bench-scale runner on the shared disk cache."""
    return ExperimentRunner(
        config=config, settings=bench_settings(cores),
        cache=ExperimentCache(BENCH_CACHE_DIR) if BENCH_CACHE_DIR else None)


_RESULTS: Dict[Tuple, ExperimentResult] = {}


def experiment(fn: Callable[..., ExperimentResult],
               **kwargs) -> ExperimentResult:
    """``fn(**kwargs)`` at bench scale, once per session per argument
    set (values must be hashable); any failed job fails the bench."""
    key = (fn, tuple(sorted(kwargs.items())))
    if key not in _RESULTS:
        kwargs.setdefault("settings", bench_settings())
        result = fn(jobs=BENCH_JOBS, cache_dir=BENCH_CACHE_DIR, **kwargs)
        assert not result.failures, result.notes
        _RESULTS[key] = result
    return _RESULTS[key]


def mid_average(result: ExperimentResult, param: Optional[str] = None
                ) -> Dict[object, Tuple[float, float]]:
    """MID-average system savings and worst CPI increase of ``result``'s
    rows, per value of column ``param`` (one entry keyed None without
    one)."""
    groups: Dict[object, list] = {}
    for row in result.rows:
        if row["workload"] in mix_names("MID"):
            groups.setdefault(row[param] if param else None, []).append(row)
    return {value: (sum(r["system_savings"] for r in rows) / len(rows),
                    max(r["worst_cpi_increase"] for r in rows))
            for value, rows in groups.items()}


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
