"""Shared infrastructure for the benchmark harness.

Benches reproduce the paper's tables and figures; several of them reuse
the same simulation runs (e.g. Figures 5 and 6 read the same MemScale
runs), so all runs are cached per (configuration, mix, policy) for the
whole pytest session. Runs additionally go through the content-keyed
on-disk cache (``.repro_cache/`` by default — override with
``REPRO_BENCH_CACHE``, or set it to the empty string to disable), so
artifacts survive across sessions, and the Figure sweeps fan out across
worker processes via :func:`repro.sim.parallel.run_sweep`.

Scale control: set ``REPRO_BENCH_INSTR`` (instructions per core, default
120000) to trade fidelity for wall-clock time, and ``REPRO_BENCH_JOBS``
to set the sweep worker count.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.config import SystemConfig, scaled_config
from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.parallel import Outcome, default_jobs, run_sweep
from repro.sim.results import PolicyComparison, RunResult
from repro.sim.runner import ExperimentRunner, RunnerSettings

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTR", "120000"))
BENCH_SEED = 2011

#: On-disk artifact cache shared by all benches ("" disables it).
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", DEFAULT_CACHE_DIR) or None

#: Worker processes for the parallel Figure sweeps.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(default_jobs())))


class BenchContext:
    """Session-wide cache of runners, runs, and comparisons."""

    def __init__(self):
        self._runners: Dict[Tuple, ExperimentRunner] = {}
        self._comparisons: Dict[Tuple, PolicyComparison] = {}
        self._results: Dict[Tuple, RunResult] = {}

    # -- runners -----------------------------------------------------------

    def runner(self, config: SystemConfig = None, cores: int = 16,
               instructions: int = None, key: Tuple = ()) -> ExperimentRunner:
        """A cached runner for the given configuration variant.

        ``key`` must uniquely identify the configuration variant; the
        default empty key is the standard scaled Table 2 configuration.
        """
        instructions = instructions or DEFAULT_INSTRUCTIONS
        cache_key = (key, cores, instructions)
        if cache_key not in self._runners:
            cfg = config if config is not None else scaled_config()
            disk_cache = (ExperimentCache(BENCH_CACHE_DIR)
                          if BENCH_CACHE_DIR else None)
            self._runners[cache_key] = ExperimentRunner(
                config=cfg,
                settings=RunnerSettings(cores=cores,
                                        instructions_per_core=instructions,
                                        seed=BENCH_SEED),
                cache=disk_cache)
        return self._runners[cache_key]

    # -- parallel sweeps ---------------------------------------------------

    def sweep(self, mixes: Sequence[str], policies: Sequence[str],
              runner: ExperimentRunner = None, key: Tuple = (),
              jobs: int = None) -> List[Outcome]:
        """Fan (mix x policy) runs across processes and absorb the
        outcomes into the session cache, so later benches reuse them."""
        runner = runner or self.runner()
        outcomes = run_sweep(
            mixes, policies, config=runner.config, settings=runner.settings,
            jobs=jobs if jobs is not None else BENCH_JOBS,
            cache_dir=BENCH_CACHE_DIR)
        for o in outcomes:
            self._comparisons[(key, id(runner), o.mix, o.policy)] = o.comparison
            if o.policy == "MemScale":
                self._results[(key, id(runner), o.mix)] = o.result
        return outcomes

    # -- cached runs ---------------------------------------------------------

    def comparison(self, mix: str, policy: str,
                   runner: ExperimentRunner = None,
                   key: Tuple = ()) -> PolicyComparison:
        runner = runner or self.runner()
        cache_key = (key, id(runner), mix, policy)
        if cache_key not in self._comparisons:
            self._comparisons[cache_key] = runner.compare_named(mix, policy)
        return self._comparisons[cache_key]

    def memscale_run(self, mix: str, runner: ExperimentRunner = None,
                     key: Tuple = ()) -> Tuple[RunResult, PolicyComparison]:
        runner = runner or self.runner()
        cache_key = (key, id(runner), mix)
        if cache_key not in self._results:
            result, cmp = runner.run_memscale(mix)
            self._results[cache_key] = result
            self._comparisons[(key, id(runner), mix, "MemScale")] = cmp
        return (self._results[cache_key],
                self._comparisons[(key, id(runner), mix, "MemScale")])


_CONTEXT = BenchContext()


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    return _CONTEXT


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
