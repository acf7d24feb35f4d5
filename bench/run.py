#!/usr/bin/env python3
"""End-to-end benchmark of the MemScale reproduction.

Run from the repository root::

    python3 bench/run.py [--workload NAME ...] [--seed 2011] [--seconds 25]
                         [--trace 0|1] [--out DIR] [--quick]

Each workload runs in fresh child processes, one workload at a time, so
peak memory and lazily warmed module state never leak between them.
The measuring child runs an untimed warm-up, then timed ops back to
back (a closed loop with one client) until ``--seconds`` is used up.
After it exits, the parent times ``setup_s`` in fresh interpreters, one
after another. ``--trace 1``
replaces both with a traced child that reports per-layer metrics
(see ``bench/layers.py``). Every op runs in one process: sweeps run
in-process (``jobs=1``), with no worker pool. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check shows there, and the exit
status stays 0. ``--out DIR`` (default ``bench/out``) receives
``results.json`` (every run of this invocation, read by
``bench/compare.py``) and, when tracing, ``<workload>.spans.jsonl``.

The harness calls only public ``repro`` APIs, on the default
configuration (``scaled_config()``: fast-forward and chain absorption on,
the steady-state surrogate off). It checks every op: no exception and
no failed sweep job, MemScale within the configured CPI bound, every
simulated run committing the fixed instruction count, and a
``results_digest`` equal across all ops of the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_OUT = BENCH_DIR / "out"

DEFAULT_SEED = 2011
DEFAULT_SECONDS = 25
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9
#: Sweep job wall times the traced pass collects untraced, so at least
#: 10 of them lie beyond ``sim.parallel.job_p95_s``.
PARALLEL_MIN_JOBS = 200
#: Every invocation must end within this many seconds.
DEADLINE_S = 170.0
#: Timed ops per run even when one op outlasts ``--seconds``, so the
#: digest comparison always has a second op to check.
MIN_OPS = 2
#: Sweeps run in the calling process. A worker pool would add processes
#: competing for the host's few CPUs and OS semaphores outside the
#: checkout; ``run_sweep`` gives identical results at any pool size.
SWEEP_JOBS = 1
#: Cache directory, under the run's work directory, that the sweep-warm
#: warm-up fills and its ops and setup probes read.
WARM_CACHE = "warm-cache"

TABLE1_MIXES = ("ILP1", "ILP2", "ILP3", "ILP4", "MID1", "MID2", "MID3",
                "MID4", "MEM1", "MEM2", "MEM3", "MEM4")
#: The paper's comparison: its policy against the all-on reference. Each
#: further policy adds 1-2 s to an in-process sweep op on a 2-vCPU Xeon,
#: leaving too few ops per run to outlast a shared host's slow spells.
SWEEP_POLICIES = ("Baseline", "MemScale")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 #: "run" (one repro run) or "sweep"
    mixes: Tuple[str, ...]
    cores: int
    instructions: int         #: per core
    cache: str                #: "none", "cold" (fresh per op) or "warm"
    telemetry: bool


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Sizes are chosen so one op takes 1-4 s on a 2-core Xeon: long enough to
# rise above timer noise, short enough for many ops per run. The sweeps
# keep the `repro sweep` default of 16 cores x 60k instructions; with
# fewer cores or instructions MemScale's worst-app CPI increase nears or
# passes its 10% bound (4 cores: 10.2%, 30k instructions: 11.4%).
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("run-mem", "run", ("MEM3",), 16, 120_000, "none", False),
    Workload("run-ilp", "run", ("ILP2",), 4, 16_000_000, "none", False),
    Workload("sweep-cold", "sweep", TABLE1_MIXES, 16, 60_000, "cold", True),
    Workload("sweep-warm", "sweep", TABLE1_MIXES, 16, 60_000, "warm", False),
)}

#: Small sizes for ``--quick`` (the harness's own tests).
QUICK = {
    "run-mem": dict(cores=4, instructions=12_000),
    "run-ilp": dict(cores=4, instructions=200_000),
    "sweep-cold": dict(mixes=("ILP1", "MEM1"), cores=4, instructions=12_000),
    "sweep-warm": dict(mixes=("ILP1", "MEM1"), cores=4, instructions=12_000),
}

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mem_energy_pct": "%",
    "sys_energy_pct": "%",
    "worst_app_cpi_pct": "%",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "memsim.dispatch_s": "s",
    "memsim.ns_per_event": "ns",
    "memsim.events_processed": "count",
    "memsim.events_fast_forwarded": "count",
    "memsim.events_busy_absorbed": "count",
    "memsim.elided_ratio": "ratio",
    "memsim.snapshot_s": "s",
    "core.policy.select_s": "s",
    "core.policy.slack_s": "s",
    "core.power.measure_s": "s",
    "core.share_pct": "%",
    "core.epochs": "count",
    "core.us_per_epoch": "us",
    "core.transitions": "count",
    "core.perf_model.cpi_err_mean_pct": "%",
    "core.perf_model.cpi_err_p90_pct": "%",
    "sim.system.build_s": "s",
    "sim.system.run_s": "s",
    "sim.system.self_s": "s",
    "cpu.trace_gen_s": "s",
    "sim.cache.load_s": "s",
    "sim.cache.store_s": "s",
    "sim.cache.loads": "count",
    "sim.cache.hit_ratio": "ratio",
    "sim.telemetry.emit_s": "s",
    "sim.telemetry.records": "count",
    "sim.parallel.overhead_s": "s",
    "sim.parallel.job_p95_s": "s",
    "bench.trace_overhead_pct": "%",
    "bench.trace_coverage_pct": "%",
}


def workload(name: str, quick: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **QUICK[name]) if quick else w


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p95(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20)[-1]


# -- child side: ops ---------------------------------------------------------


@dataclass
class Op:
    """One op's wall time and what its checks found."""

    wall_s: float
    attempted: int            #: jobs: 1 per run op, mixes x policies per sweep
    failed: int
    digest: Optional[str]
    problems: List[str]
    fidelity: Optional[Dict[str, float]]
    job_walls: List[float]


class Bench:
    """Runs the ops of one workload inside a child process."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        from repro.config import scaled_config
        from repro.sim import RunnerSettings
        self.w = w
        self.settings = RunnerSettings(cores=w.cores,
                                       instructions_per_core=w.instructions,
                                       seed=seed)
        self.cpi_bound = scaled_config().policy.cpi_bound
        self.workdir = workdir
        self.warm_cache = workdir / WARM_CACHE

    @property
    def jobs_per_op(self) -> int:
        if self.w.kind == "run":
            return 1
        return len(self.w.mixes) * len(SWEEP_POLICIES)

    def warm_up(self) -> None:
        """Untimed: finish lazy imports and set-up on a small op of the same
        kind, or, for a warm-cache sweep, fill the cache with every mix's
        trace and baseline at full size."""
        if self.w.cache == "warm":
            from repro.config import scaled_config
            from repro.sim import run_sweep
            run_sweep(self.w.mixes, ["Baseline"], config=scaled_config(),
                      settings=self.settings, jobs=SWEEP_JOBS,
                      cache_dir=self.warm_cache)
        else:
            small = Bench(workload(self.w.name, quick=True),
                          self.settings.seed, self.workdir)
            small.op()

    def op(self) -> Op:
        """One op; an exception counts every job of the op as failed."""
        gc.collect()
        start = time.perf_counter()
        try:
            if self.w.kind == "run":
                return self._run_op()
            return self._sweep_op()
        except Exception:  # the op is the unit of failure; keep measuring
            traceback.print_exc()
            n = self.jobs_per_op
            return Op(time.perf_counter() - start, n, n, None,
                      ["op raised"], None, [])

    def _run_op(self) -> Op:
        from repro.config import scaled_config
        from repro.sim import ExperimentRunner
        mix = self.w.mixes[0]
        start = time.perf_counter()
        runner = ExperimentRunner(config=scaled_config(),
                                  settings=self.settings)
        governor = runner.make_named_governor(mix, "MemScale")
        result, comparison = runner.run_and_compare(mix, governor)
        wall = time.perf_counter() - start
        base = runner.baseline(mix)
        problems = (self._check_run(base) + self._check_run(result)
                    + self._check_cpi("MemScale", comparison))
        return Op(wall, 1, 1 if problems else 0,
                  digest([(base, None), (result, comparison)]), problems,
                  fidelity([comparison]), [wall])

    def _sweep_op(self) -> Op:
        from repro.config import scaled_config
        from repro.sim import run_sweep
        from repro.sim.parallel import JobFailure
        fresh = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        cache_dir = self.warm_cache if self.w.cache == "warm" else fresh / "c"
        telemetry_dir = fresh / "t" if self.w.telemetry else None
        try:
            start = time.perf_counter()
            outcomes = run_sweep(self.w.mixes, SWEEP_POLICIES,
                                 config=scaled_config(),
                                 settings=self.settings, jobs=SWEEP_JOBS,
                                 cache_dir=cache_dir,
                                 telemetry_dir=telemetry_dir)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(fresh, ignore_errors=True)
        problems: List[str] = []
        failed = 0
        good = []
        for outcome in outcomes:
            if isinstance(outcome, JobFailure):
                found = [outcome.summary()]
            else:
                good.append(outcome)
                found = (self._check_run(outcome.result)
                         + self._check_cpi(outcome.policy, outcome.comparison))
            failed += bool(found)
            problems += found
        memscale = [o.comparison for o in good if o.policy == "MemScale"]
        return Op(wall, len(outcomes), failed,
                  digest([(o.result, o.comparison) for o in good]), problems,
                  fidelity(memscale) if memscale else None,
                  [o.wall_s for o in good])

    def _check_run(self, result) -> List[str]:
        work = self.settings.cores * self.settings.instructions_per_core
        done = result.target_instructions * len(result.core_apps)
        if done != work:
            return [f"{result.workload}/{result.governor}: simulated {done} "
                    f"instructions, fixed work is {work}"]
        return []

    def _check_cpi(self, policy: str, comparison) -> List[str]:
        # Only the paper's policy is gated; the variants are reported.
        if policy == "MemScale" and (comparison.worst_cpi_increase
                                     > self.cpi_bound):
            return [f"{comparison.workload}/MemScale: worst-app CPI increase "
                    f"{comparison.worst_cpi_increase:.4f} exceeds the "
                    f"bound {self.cpi_bound}"]
        return []


def digest(runs) -> str:
    """sha256 over the sorted-key JSON of every result and comparison."""
    from repro.sim.serialize import comparison_to_dict, run_result_to_dict
    payload = []
    for result, comparison in runs:
        payload.append(run_result_to_dict(result))
        if comparison is not None:
            payload.append(comparison_to_dict(comparison))
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fidelity(comparisons) -> Dict[str, float]:
    """MemScale against Baseline, as a share of the Baseline value: memory
    and system energy (mean over mixes) and the worst app's CPI (max)."""
    n = len(comparisons)
    return {
        "mem_energy_pct": 100.0 * (1.0 - sum(
            c.memory_energy_savings for c in comparisons) / n),
        "sys_energy_pct": 100.0 * (1.0 - sum(
            c.system_energy_savings for c in comparisons) / n),
        "worst_app_cpi_pct": 100.0 * (1.0 + max(
            c.worst_cpi_increase for c in comparisons)),
    }


def timed_ops(run_op, seconds: float, min_ops: int) -> List[Op]:
    """Ops back to back until the next one would overrun ``seconds``."""
    ops: List[Op] = []
    start = time.perf_counter()
    while True:
        ops.append(run_op())
        elapsed = time.perf_counter() - start
        typical = statistics.median(op.wall_s for op in ops)
        if len(ops) >= min_ops and elapsed + typical > seconds:
            return ops


def tally(ops: Sequence[Op]) -> Dict[str, object]:
    """Attempted/failed jobs over ``ops``; an op whose digest differs from
    the first op's fails every job it ran."""
    reference = next((op.digest for op in ops if op.digest), None)
    attempted = failed = 0
    problems: List[str] = []
    for op in ops:
        attempted += op.attempted
        if op.digest is not None and op.digest != reference:
            failed += op.attempted
            problems.append(f"results_digest {op.digest[:12]} differs from "
                            f"the first op's {reference[:12]}")
        else:
            failed += op.failed
        problems += op.problems
    return {"attempted": attempted, "failed": failed, "digest": reference,
            "problems": problems[:20]}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_measure(w: Workload, seed: int, seconds: float,
                  workdir: Path) -> Dict[str, object]:
    bench = Bench(w, seed, workdir)
    bench.warm_up()
    ops = timed_ops(bench.op, seconds, MIN_OPS)
    fid = next((op.fidelity for op in ops if op.fidelity), None)
    return dict(tally(ops), walls=[op.wall_s for op in ops],
                peak_rss_mb=peak_rss_mb(), fidelity=fid)


def child_trace(w: Workload, seed: int, seconds: float, workdir: Path,
                out: Path) -> Dict[str, object]:
    """Per-layer metrics. Untraced reference ops run for half of
    ``seconds`` (sweeps: for at least ``PARALLEL_MIN_JOBS`` jobs) and
    give ``sim.parallel`` and the baseline of
    ``bench.trace_overhead_pct``; traced ops run for the other half."""
    bench = Bench(w, seed, workdir)
    bench.warm_up()
    ref = timed_ops(bench.op, seconds / 2,
                    -(-PARALLEL_MIN_JOBS // bench.jobs_per_op)
                    if w.kind == "sweep" else 1)

    import layers  # only the traced child carries the wrappers
    tracer = layers.Tracer()
    op_ids = itertools.count()
    tracer.install()
    try:
        traced = timed_ops(
            lambda: tracer.run_op(next(op_ids), bench.op), seconds / 2, 1)
    finally:
        tracer.remove()
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(out / f"{w.name}.spans.jsonl")

    metrics = layers.layer_metrics(tracer)
    metrics.update(parallel_metrics(ref))
    untraced = statistics.median(op.wall_s for op in ref)
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(op.wall_s for op in traced) / untraced - 1.0)
    return dict(tally(ref + traced), metrics=metrics)


def parallel_metrics(ops: Sequence[Op]) -> Dict[str, float]:
    """The sweep driver's time outside its jobs, per op, and the p95 job
    time, from the program's own per-job wall times (a run op is one
    job, so it reads as no overhead)."""
    wall = sum(op.wall_s for op in ops)
    job_walls = [t for op in ops for t in op.job_walls]
    return {"sim.parallel.overhead_s": (wall - sum(job_walls)) / len(ops),
            "sim.parallel.job_p95_s": p95(job_walls)}


def child_setup(w: Workload, seed: int, workdir: Path) -> None:
    """What a user waits for before the first simulated event: import the
    CLI, validate the config, build (or load from cache) the traces."""
    import repro.cli  # noqa: F401
    from repro.config import scaled_config
    from repro.sim import ExperimentCache, ExperimentRunner, RunnerSettings
    config = scaled_config()
    config.validate()
    cache = None
    if w.cache == "cold":
        cache = ExperimentCache(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    elif w.cache == "warm":
        cache = ExperimentCache(workdir / WARM_CACHE)
    runner = ExperimentRunner(
        config=config, cache=cache,
        settings=RunnerSettings(cores=w.cores,
                                instructions_per_core=w.instructions,
                                seed=seed))
    for mix in w.mixes:
        runner.trace(mix)


# -- parent side -------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread per process: the op is single-threaded
    return env


def run_child(args: List[str], deadline: float) -> str:
    """Run this script as a child in its own process group and return the
    last line it prints. The whole group is killed if it outlives
    ``deadline``."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())]
                            + args, stdout=subprocess.PIPE, env=child_env(),
                            cwd=str(ROOT), start_new_session=True, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.time()), os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    last = ""
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise SystemExit(f"bench: child {args[:2]} exited with "
                         f"{proc.returncode} (-9: killed at the deadline)")
    return last


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, out: Path, deadline: float) -> Dict[str, object]:
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
    common = ["--workload", name, "--seed", str(seed), "--workdir",
              str(workdir)] + (["--quick"] if quick else [])
    try:
        if trace:
            res = json.loads(run_child(
                ["--child", "trace", "--seconds", str(seconds), "--out",
                 str(out)] + common, deadline))
            metrics = res["metrics"]
            samples: Dict[str, List[float]] = {}
            units = PER_LAYER
        else:
            res = json.loads(run_child(
                ["--child", "measure", "--seconds", str(seconds)] + common,
                deadline))
            setups: List[float] = []
            for _ in range(SETUP_PROBES):
                start = time.perf_counter()
                run_child(["--child", "setup"] + common, deadline)
                setups.append(time.perf_counter() - start)
            samples = {"wall_s": res["walls"], "setup_s": setups}
            metrics = {"wall_s": statistics.median(res["walls"]),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": res["peak_rss_mb"]}
            if res["fidelity"] is None:
                res["problems"].append("no MemScale result to report")
                res["failed"] = max(1, res["failed"])
            metrics.update(res["fidelity"] or dict.fromkeys(
                ("mem_energy_pct", "sys_energy_pct", "worst_app_cpi_pct"),
                0.0))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"], "digest": res["digest"],
        "problems": res["problems"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "samples": samples,
    }


def report(run: Dict[str, object]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"== {run['workload']}  seed {run['seed']}  "
          f"{'per-layer (traced)' if run['trace'] else 'end-to-end'}")
    for name, m in run["metrics"].items():
        line = f"  {name:34s} {m['value']:14.6g} {m['unit']}"
        values = run["samples"].get(name)
        if values:
            q1, median, q3 = quartiles(values)
            line += (f"   (n {len(values)}: min {min(values):.6g}, q1 "
                     f"{q1:.6g}, median {median:.6g}, q3 {q3:.6g})")
        print(line)
    for problem in run["problems"]:
        print(f"  FAILED: {problem}")
    print(f"results_digest {run['workload']} {run['digest']}")
    print(json.dumps({k: run[k] for k in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def machine() -> Dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", "--workloads", nargs="+", action="extend",
                   choices=sorted(WORKLOADS), dest="workloads",
                   help="workloads to run (default: all, in table order)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="trace-generation seed (RunnerSettings.seed)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measured seconds per run")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: traced pass printing per-layer metrics")
    p.add_argument("--out", type=Path, default=DEFAULT_OUT,
                   help="directory for results.json and span files")
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, for the harness's own tests")
    p.add_argument("--child", choices=("measure", "trace", "setup"),
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        w = workload(args.workloads[0], args.quick)
        if args.child == "setup":
            child_setup(w, args.seed, args.workdir)
            return 0
        if args.child == "measure":
            res = child_measure(w, args.seed, args.seconds, args.workdir)
        else:
            res = child_trace(w, args.seed, args.seconds, args.workdir,
                              args.out)
        print(json.dumps(res))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = args.workloads or list(WORKLOADS)
    deadline = time.time() + DEADLINE_S * len(names)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.quick, args.out, deadline)
        report(run)
        runs.append(run)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "results.json", "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "argv": sys.argv[1:], "machine": machine(),
                   "seconds": args.seconds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
