"""Parallel experiment execution: one job shape for every sweep kind.

Every experiment of the reproduction is the paper's §4.2 experiment
repeated: replay a mix under a governor and compare the run with the
mix's all-on baseline. The sweep kinds differ only in which governor
runs and what gets summarized, so there is one job type
(:class:`JobSpec`), one worker, one driver (:func:`run_specs`) and one
outcome type (:class:`Outcome`). What a kind adds lives in one
:data:`KINDS` table entry with three pieces:

* an **overlay** of the sweep config (a device technology table for
  scenario jobs, ``placement.enabled`` for the placed leg);
* a **governor** factory (the named policy, a cap or multi-domain
  governor at a budget, placement-wrapped MemScale, a throttle
  reference);
* an **extras** extractor: the kind's bookkeeping (cap ledger,
  per-domain energy split, placement counters, standby share) as a
  plain dict on the outcome.

The ``*_specs`` builders name a sweep's points, for :func:`run_specs`
and the persistent :class:`~repro.sim.service.SweepService` alike.

The driver runs in two phases — the evaluation structure FastCap (Liu
et al.) uses for epoch-based multi-workload DVFS studies:

1. **warm phase** (only with ``jobs > 1`` and a cache) — one task per
   distinct (mix, effective config) generates the deterministic trace
   *once*, stores it in the content-keyed on-disk cache
   (:mod:`repro.sim.cache`) in the flat columnar ``.npy`` layout, and
   records the all-on baseline run beside it;
2. **fan-out phase** — one task per spec loads the shared artifacts
   from the cache and simulates only its own run, with an optional
   per-run telemetry JSONL stream. Trace loads go through
   ``np.load(..., mmap_mode="r")``: every worker's core arrays are
   read-only views of the same memory-mapped file, so the trace bytes
   exist once in the OS page cache no matter how many processes replay
   them.

Determinism: trace generation is fully seeded and simulation is
event-ordered, so a parallel sweep produces *byte-identical*
:class:`~repro.sim.results.RunResult`\\ s to a serial sweep of the same
settings (asserted by ``tests/test_parallel.py``).

Workers are plain ``ProcessPoolExecutor`` processes (``fork`` start
method where available, so the imported package is inherited). With
``jobs=1`` — or ``None`` on a single-CPU machine — everything runs
inline in the calling process, which is also the path the tests use to
compare against.

Fault isolation: jobs are submitted one future each and collected
individually through :func:`execute_jobs` — one raising job (or even a
worker killed by the OS) surfaces as a :class:`JobFailure` record
carrying the worker-side traceback while every other job completes.
Each job gets ``retries`` extra attempts before its failure is
recorded; a broken pool is rebuilt and the survivors re-run in
single-worker isolation so a poison job cannot take the sweep down.
The persistent-queue layer on top of this lives in
:mod:`repro.sim.service`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import multiprocessing

from repro.config import SystemConfig, scaled_config
from repro.core.baselines import StaticFrequencyGovernor
from repro.core.governor import Governor
from repro.cpu.trace import WorkloadTrace
from repro.cpu.workloads import known_mix_names
from repro.sim.cache import DEFAULT_CACHE_DIR, ExperimentCache
from repro.sim.results import PolicyComparison, RunResult
from repro.sim.runner import (IMPORTED_TRACE_PREFIX, POLICY_NAMES,
                              ExperimentRunner, RunnerSettings,
                              governor_listing)
from repro.sim.telemetry import JsonlTelemetry

PathLike = Union[str, Path]

#: Bumped whenever the job-key layout (or the service ledger built on
#: it) changes incompatibly.
SERVICE_FORMAT = 1


def content_digest(payload: Dict[str, object]) -> str:
    """Stable sha256 of a JSON-serializable payload (canonical form)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class InjectedFailure(RuntimeError):
    """Raised by the worker for jobs named in ``fail_labels``.

    The failure-injection hook the service smoke and the crash-resume
    tests use: deterministic, picklable (plain label strings cross the
    pool, not closures), and absent on resume, so a resumed sweep heals
    the injected failure like a real transient fault.
    """


# -- the job type ----------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    """One unit of sweep work: a mix at one point of one kind.

    ``kind`` selects the :data:`KINDS` entry; the point fields are
    ``policy`` for policy sweeps, ``budget_fraction`` (None meaning the
    throttle reference) for cap sweeps, ``budget_fraction`` +
    ``coordinated`` for multi-domain sweeps, ``coordinated`` carrying
    the placed flag for placement sweeps (a boolean leg selector either
    way, so the key schema is shared), and ``policy`` + ``device`` for
    scenario sweeps, which also pin a device technology table.
    """

    kind: str
    mix: str
    policy: Optional[str] = None
    budget_fraction: Optional[float] = None
    coordinated: Optional[bool] = None
    device: Optional[str] = None

    def __post_init__(self) -> None:
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"choose from {sorted(KINDS)}")
        for attr in kind.required:
            if getattr(self, attr) is None:
                raise ValueError(f"{self.kind} jobs need {attr}")

    @property
    def point(self) -> str:
        """The point's display/file label within its mix (``Cap0.80``)."""
        return KINDS[self.kind].point(self)

    @property
    def label(self) -> str:
        """Display label (``mix/<point>``), the injection handle too."""
        return f"{self.mix}/{self.point}"

    def key(self, config_hash: str, settings_hash: str) -> str:
        """Content key: spec + config/settings fingerprints."""
        payload = {
            "format": SERVICE_FORMAT, "kind": self.kind, "mix": self.mix,
            "policy": self.policy, "budget_fraction": self.budget_fraction,
            "coordinated": self.coordinated, "config": config_hash,
            "settings": settings_hash,
        }
        # Only scenario jobs carry a device; omitting the field otherwise
        # keeps every pre-existing service directory's keys stable.
        if self.device is not None:
            payload["device"] = self.device
        return content_digest(payload)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "mix": self.mix, "policy": self.policy,
                "budget_fraction": self.budget_fraction,
                "coordinated": self.coordinated, "device": self.device}

    def job_dict(self) -> Dict[str, object]:
        """The ``job`` section of this spec's store records."""
        payload = self.to_dict()
        payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        return cls(kind=data["kind"], mix=data["mix"],
                   policy=data.get("policy"),
                   budget_fraction=data.get("budget_fraction"),
                   coordinated=data.get("coordinated"),
                   device=data.get("device"))


@dataclass
class Outcome:
    """Result of one :class:`JobSpec`, with execution metadata.

    ``extras`` holds the kind's bookkeeping under the field names its
    store records carry (``budget_w``, ``cap``, ``summary``,
    ``placement``, ``background_share``, ...).
    """

    spec: JobSpec
    result: RunResult
    comparison: PolicyComparison
    extras: Dict[str, object]
    wall_s: float                   #: worker wall-clock for this job
    cache_hits: int = 0             #: cache hits observed by the worker
    telemetry_path: Optional[str] = None

    @property
    def mix(self) -> str:
        return self.spec.mix

    @property
    def policy(self) -> Optional[str]:
        return self.spec.policy

    @property
    def point(self) -> str:
        return self.spec.point


@dataclass
class JobFailure:
    """Structured record of one job that failed after all its attempts.

    Returned in place of the job's outcome so a sweep containing one
    bad job still yields every other result. Carries the worker-side
    traceback of the last attempt; ``job`` is the failed job's
    :class:`JobSpec`.
    """

    job: object
    label: str                      #: display label, e.g. "MID1/Static"
    error_type: str                 #: exception class name
    message: str
    traceback: str = ""             #: worker-side formatted traceback
    attempts: int = 1               #: total attempts made (1 + retries)
    wall_s: float = 0.0             #: wall-clock of the last attempt

    @property
    def mix(self) -> str:
        return getattr(self.job, "mix", "?")

    def summary(self) -> str:
        return (f"{self.label}: {self.error_type}: {self.message} "
                f"(after {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''})")


# -- the kinds -------------------------------------------------------------

def _min_perf(comparison: PolicyComparison) -> float:
    """Min-app normalized performance (the fairness metric)."""
    return 1.0 / (1.0 + comparison.worst_cpi_increase)


def _same_config(config: SystemConfig, spec: JobSpec) -> SystemConfig:
    return config


def _no_extras(runner: ExperimentRunner, spec: JobSpec,
               governor: Optional[Governor], result: RunResult,
               comparison: PolicyComparison) -> Dict[str, object]:
    return {}


def _named_governor(runner: ExperimentRunner,
                    spec: JobSpec) -> Optional[Governor]:
    # None: the Baseline policy is the reference run itself, compared
    # with itself rather than simulated again.
    if spec.policy == "Baseline":
        return None
    return runner.make_named_governor(spec.mix, spec.policy)


def _cap_governor(runner: ExperimentRunner, spec: JobSpec) -> Governor:
    if spec.budget_fraction is None:
        # Naive throttle reference: pin the whole subsystem to the
        # slowest ladder point for the entire run.
        return StaticFrequencyGovernor(
            bus_mhz=min(runner.config.sorted_bus_freqs()))
    return runner.make_cap_governor(spec.mix,
                                    budget_fraction=spec.budget_fraction)


def _cap_extras(runner: ExperimentRunner, spec: JobSpec, governor: Governor,
                result: RunResult,
                comparison: PolicyComparison) -> Dict[str, object]:
    capped = spec.budget_fraction is not None
    return {
        "budget_w": governor.budget.min_watts if capped else None,
        "governor": governor.name,
        "min_perf": _min_perf(comparison),
        "avg_power_w": result.avg_memory_power_w,
        "cap": governor.cap_summary() if capped else None,
    }


def _multidomain_budget_w(runner: ExperimentRunner, spec: JobSpec) -> float:
    return (spec.budget_fraction
            * runner.multidomain_reference_power_w(spec.mix))


def _multidomain_governor(runner: ExperimentRunner,
                          spec: JobSpec) -> Governor:
    budget_w = _multidomain_budget_w(runner, spec)
    if spec.coordinated:
        return runner.make_multidomain_governor(spec.mix, budget_w=budget_w)
    # Memory-only reference: cores stay at nominal power, so the memory
    # side gets whatever the global budget leaves (floored to keep the
    # PowerBudget contract when cores alone exceed it).
    core_ref_w = runner.baseline_core_power_w(spec.mix)
    return runner.make_cap_governor(
        spec.mix, budget_w=max(0.05, budget_w - core_ref_w))


def _multidomain_extras(runner: ExperimentRunner, spec: JobSpec,
                        governor: Governor, result: RunResult,
                        comparison: PolicyComparison) -> Dict[str, object]:
    """Per-domain accounting of one global-budget run.

    System energy is assembled from an explicit per-domain split —
    measured memory energy, *modeled* core energy, and the calibrated
    "other" (rest-of-system minus nominal cores) power — so the
    coordinated and memory-only legs are compared on identical terms.
    The memory-only reference charges nominal core power for the whole
    run; the coordinated leg charges the governor's ledgered core power.
    """
    core_ref_w = runner.baseline_core_power_w(spec.mix)
    if spec.coordinated:
        summary = governor.multidomain_summary()
        avg_core_w = summary.get("avg_core_power_w") or core_ref_w
    else:
        summary = governor.cap_summary()
        avg_core_w = core_ref_w
    sim_s = result.sim_time_s
    core_energy_j = avg_core_w * sim_s
    other_w = runner.platform_other_power_w(spec.mix)
    return {
        "budget_w": _multidomain_budget_w(runner, spec),
        "governor": governor.name,
        "min_perf": _min_perf(comparison),
        "avg_power_w": result.avg_memory_power_w + avg_core_w,
        "avg_core_power_w": avg_core_w,
        "core_energy_j": core_energy_j,
        "system_energy_j": (result.memory_energy_j + core_energy_j
                            + other_w * sim_s),
        "summary": summary,
    }


def _placement_config(config: SystemConfig, spec: JobSpec) -> SystemConfig:
    # The placed leg flips only the enabled flag, inheriting any tuned
    # placement knobs; the reference leg decodes through the untouched
    # interleaver. A placement-enabled config routes addresses through
    # the page table even under the Baseline governor, so each leg is
    # normalized against its own baseline.
    if spec.coordinated:
        return config.with_placement(enabled=True)
    return config


def _placement_governor(runner: ExperimentRunner, spec: JobSpec) -> Governor:
    if spec.coordinated:
        return runner.make_placement_governor(spec.mix)
    return runner.make_memscale_governor(spec.mix)


def _placement_extras(runner: ExperimentRunner, spec: JobSpec,
                      governor: Governor, result: RunResult,
                      comparison: PolicyComparison) -> Dict[str, object]:
    return {
        "governor": governor.name,
        "min_perf": _min_perf(comparison),
        "avg_power_w": result.avg_memory_power_w,
        "placement": (governor.placement_summary() if spec.coordinated
                      else None),
    }


def _device_config(config: SystemConfig, spec: JobSpec) -> SystemConfig:
    # Timings + currents only, so cache fingerprints and the service
    # ledger see an ordinary config change: each (mix, device) pair gets
    # its own baseline, and savings are normalized within the device.
    from repro.scenarios.devices import apply_device
    return apply_device(config, spec.device)


def _scenario_extras(runner: ExperimentRunner, spec: JobSpec,
                     governor: Optional[Governor], result: RunResult,
                     comparison: PolicyComparison) -> Dict[str, object]:
    # Background (standby) share of the run's DIMM energy: the number a
    # device table shifts most visibly (STT-MRAM drives it near 0).
    dimm_j = result.memory_energy_j - result.energy_j.get("mc", 0.0)
    background = result.energy_j.get("background", 0.0)
    return {"background_share": background / dimm_j if dimm_j > 0 else 0.0}


def _budget_point(spec: JobSpec) -> str:
    if spec.budget_fraction is None:
        return "Throttle"
    return f"Cap{spec.budget_fraction:.2f}"


@dataclass(frozen=True)
class Kind:
    """What one experiment kind adds to the shared run."""

    #: (outcome record field, :class:`JobSpec` attribute) pairs that
    #: name a point of this kind
    fields: Tuple[Tuple[str, str], ...]
    #: :class:`JobSpec` attributes that must be set
    required: Tuple[str, ...]
    point: Callable[[JobSpec], str]
    overlay: Callable[[SystemConfig, JobSpec], SystemConfig]
    #: None runs the mix's baseline compared with itself
    governor: Callable[[ExperimentRunner, JobSpec], Optional[Governor]]
    extras: Callable[..., Dict[str, object]]


KINDS: Dict[str, Kind] = {
    "policy": Kind(
        fields=(("policy", "policy"),), required=("policy",),
        point=lambda s: s.policy, overlay=_same_config,
        governor=_named_governor, extras=_no_extras),
    "cap": Kind(
        fields=(("budget_fraction", "budget_fraction"),), required=(),
        point=_budget_point, overlay=_same_config,
        governor=_cap_governor, extras=_cap_extras),
    "multidomain": Kind(
        fields=(("budget_fraction", "budget_fraction"),
                ("coordinated", "coordinated")),
        required=("budget_fraction", "coordinated"),
        point=lambda s: (f"{'MD' if s.coordinated else 'MemOnly'}"
                         f"{s.budget_fraction:.2f}"),
        overlay=_same_config, governor=_multidomain_governor,
        extras=_multidomain_extras),
    "placement": Kind(
        fields=(("placed", "coordinated"),), required=("coordinated",),
        point=lambda s: "Placed" if s.coordinated else "NoPlacement",
        overlay=_placement_config, governor=_placement_governor,
        extras=_placement_extras),
    "scenario": Kind(
        fields=(("policy", "policy"), ("device", "device")),
        required=("policy", "device"),
        point=lambda s: f"{s.policy}@{s.device}", overlay=_device_config,
        governor=_named_governor, extras=_scenario_extras),
}


# -- spec builders ---------------------------------------------------------

def _need(values: Sequence[object], what: str) -> None:
    if not values:
        raise ValueError(f"need at least one {what}")


def _fractions(budget_fractions: Sequence[float]) -> List[float]:
    fractions = [float(f) for f in budget_fractions]
    _need(fractions, "budget fraction")
    if any(f <= 0 for f in fractions):
        raise ValueError("budget fractions must be positive")
    return fractions


def policy_specs(mixes: Sequence[str],
                 policies: Sequence[str]) -> List[JobSpec]:
    """Specs for a (mix x policy) sweep, in input order."""
    return [JobSpec("policy", mix, policy=policy)
            for mix in mixes for policy in policies]


def cap_specs(mixes: Sequence[str], budget_fractions: Sequence[float],
              include_throttle: bool = True) -> List[JobSpec]:
    """Specs for a power-cap sweep, ordered ``mix x budget``.

    ``budget_fractions`` are caps expressed as fractions of each mix's
    *own* baseline average memory power (1.0 = uncapped reference
    power); the conversion to watts happens in the worker from the
    cache-shared baseline run, so all workers agree bit for bit. With
    ``include_throttle`` each mix also gets a lowest-static-frequency
    reference point (``budget_fraction=None``) — the fairness floor a
    capping governor must beat.
    """
    _need(mixes, "mix")
    points: List[Optional[float]] = list(_fractions(budget_fractions))
    if include_throttle:
        points.append(None)
    return [JobSpec("cap", mix, budget_fraction=frac)
            for mix in mixes for frac in points]


def multidomain_specs(mixes: Sequence[str],
                      budget_fractions: Sequence[float],
                      include_memory_only: bool = True) -> List[JobSpec]:
    """Specs for a multi-domain sweep, ordered ``mix x fraction x
    (coordinated, memory-only)`` so per-point pairs sit adjacent.

    ``budget_fractions`` are global (CPU + memory) budgets expressed as
    fractions of each mix's baseline memory power plus modeled nominal
    core power. With ``include_memory_only`` each budget point also
    runs the memory-only reference (``coordinated=False``): a
    :class:`~repro.cap.governor.CapGovernor` given the budget left after
    nominal core power — the split a coordinated governor must beat.
    """
    _need(mixes, "mix")
    fractions = _fractions(budget_fractions)
    legs = [True, False] if include_memory_only else [True]
    return [JobSpec("multidomain", mix, budget_fraction=frac,
                    coordinated=coordinated)
            for mix in mixes for frac in fractions for coordinated in legs]


def placement_specs(mixes: Sequence[str],
                    include_reference: bool = True) -> List[JobSpec]:
    """Specs for a placement sweep, ordered ``mix x (placed,
    reference)`` (the ``coordinated`` field carries the placed flag).

    The placed leg wraps MemScale in a
    :class:`~repro.placement.governor.PlacementGovernor` on a
    placement-enabled copy of the sweep config (pass a config with
    tuned ``config.placement`` knobs to shape it); with
    ``include_reference`` each mix also runs plain MemScale on the
    config unchanged. Placement's gain is judged between the two legs'
    *absolute* memory energies: enabling placement changes the decode
    of the baseline run too, so the legs do not share a reference.
    """
    _need(mixes, "mix")
    legs = [True, False] if include_reference else [True]
    return [JobSpec("placement", mix, coordinated=placed)
            for mix in mixes for placed in legs]


def scenario_specs(mixes: Sequence[str], policies: Sequence[str],
                   devices: Sequence[str]) -> List[JobSpec]:
    """Specs for a (mix x policy x device) scenario sweep, in input
    order. Devices name :data:`repro.scenarios.devices.DEVICE_TABLES`
    entries; unknown names fail here."""
    from repro.scenarios.devices import lookup_device

    _need(devices, "device table")
    for device in devices:
        lookup_device(device)
    return [JobSpec("scenario", mix, policy=policy, device=device)
            for mix in mixes for policy in policies for device in devices]


def check_mixes(mixes: Iterable[str]) -> None:
    """Raise ValueError on a mix name no worker can resolve."""
    known = known_mix_names()
    for mix in mixes:
        # ``trace:<name>`` mixes resolve against the worker's cache (the
        # imported-trace store), not the synthetic registry.
        if mix not in known and not mix.startswith(IMPORTED_TRACE_PREFIX):
            raise ValueError(f"unknown mix {mix!r}; choose from {known} "
                             f"(or an imported 'trace:<name>')")


def check_specs(specs: Sequence[JobSpec]) -> None:
    """Fail fast, before any work, on a mix or policy no worker knows."""
    check_mixes(dict.fromkeys(spec.mix for spec in specs))
    for policy in dict.fromkeys(spec.policy for spec in specs):
        if policy is not None and policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}; registered "
                             f"governors are:\n{governor_listing()}")


# -- helpers ---------------------------------------------------------------

def default_jobs() -> int:
    """Worker count when the caller does not specify one.

    Prefers the scheduling affinity mask over the raw CPU count so a
    cgroup/affinity-limited container (CI runners, ``taskset``) gets
    the CPUs it may actually run on instead of overcommitting workers
    against every core the host has.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))


def telemetry_filename(mix: str, point: str) -> str:
    """Stable, filesystem-safe JSONL name for one (mix, point) run."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", point)
    return f"{mix}__{slug}.jsonl"


# -- worker-side entry points (module level: must be picklable) ------------

def _make_runner(config: SystemConfig, settings: RunnerSettings,
                 cache_dir: Optional[str]) -> ExperimentRunner:
    cache = ExperimentCache(cache_dir) if cache_dir is not None else None
    return ExperimentRunner(config=config, settings=settings, cache=cache)


def _warm_mix(args: Tuple[SystemConfig, RunnerSettings, str, Optional[str]]
              ) -> str:
    """Warm task: populate trace + baseline cache entries for one mix."""
    config, settings, mix, cache_dir = args
    _make_runner(config, settings, cache_dir).warm(mix)
    return mix


def _build_trace(args: Tuple[RunnerSettings, str, Optional[str]]
                 ) -> Tuple[str, WorkloadTrace]:
    """Trace-only task used by :func:`generate_traces`."""
    settings, mix, cache_dir = args
    runner = _make_runner(scaled_config(), settings, cache_dir)
    return mix, runner.trace(mix)


def _run_spec(args: Tuple[JobSpec, SystemConfig, RunnerSettings,
                          Optional[str], Optional[str], frozenset]
              ) -> Outcome:
    """Fan-out task: one run of one spec, compared against its baseline."""
    spec, config, settings, cache_dir, telemetry_dir, fail = args
    start = time.perf_counter()
    if fail and spec.label in fail:
        raise InjectedFailure(f"injected failure for {spec.label}")
    kind = KINDS[spec.kind]
    runner = _make_runner(kind.overlay(config, spec), settings, cache_dir)
    telemetry_path = None
    if telemetry_dir is not None:
        telemetry_path = str(Path(telemetry_dir)
                             / telemetry_filename(spec.mix, spec.point))
    result, comparison, extras = _simulate(kind, runner, spec,
                                           telemetry_path)
    hits = runner.cache.hits if runner.cache is not None else 0
    return Outcome(spec=spec, result=result, comparison=comparison,
                   extras=extras, wall_s=time.perf_counter() - start,
                   cache_hits=hits, telemetry_path=telemetry_path)


def _simulate(kind: Kind, runner: ExperimentRunner, spec: JobSpec,
              telemetry_path: Optional[str]
              ) -> Tuple[RunResult, PolicyComparison, Dict[str, object]]:
    """The kind's governor on the spec's mix, compared against the
    baseline, plus the kind's extras. The governor is dropped on return,
    so its teardown counts in the job's wall time."""
    governor = kind.governor(runner, spec)
    telemetry = (JsonlTelemetry(telemetry_path)
                 if telemetry_path is not None else None)
    try:
        if governor is None:
            result, comparison = runner.run_named_policy(spec.mix,
                                                         "Baseline")
        else:
            result, comparison = runner.run_and_compare(
                spec.mix, governor, telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    return result, comparison, kind.extras(runner, spec, governor, result,
                                           comparison)


# -- fault-isolated execution ----------------------------------------------

def _executor(jobs: int) -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def _run_guarded(payload: Tuple[Callable, object]) -> Tuple[str, object, float]:
    """Worker-side wrapper: never lets an exception cross the pool.

    Returns ``("ok", outcome, wall_s)`` or ``("error", info, wall_s)``
    where ``info`` carries the exception class, message, and formatted
    traceback — some exceptions do not survive pickling, and a raising
    future would otherwise cost the whole sweep under ``pool.map``.
    """
    fn, args = payload
    start = time.perf_counter()
    try:
        return ("ok", fn(args), time.perf_counter() - start)
    except BaseException as exc:  # noqa: BLE001 - isolate *everything*
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return ("error", {
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }, time.perf_counter() - start)


#: ``info`` payload synthesized when a worker process vanished (killed
#: by the OS, OOM, segfault) and took its future down with it.
def _worker_died_info(exc: BaseException) -> Dict[str, str]:
    return {
        "error_type": type(exc).__name__,
        "message": ("worker process died before returning a result "
                    f"({exc})" if str(exc) else
                    "worker process died before returning a result"),
        "traceback": "",
    }


def execute_jobs(fn: Callable, job_args: Sequence[object],
                 jobs_meta: Sequence[object], jobs: int,
                 retries: int = 0,
                 on_outcome: Optional[Callable[[int, object], None]] = None
                 ) -> List[object]:
    """Run ``fn`` over ``job_args`` with per-job fault isolation.

    The replacement for bare ``pool.map``: every job is submitted as
    its own future and collected individually, so one raising job (or a
    worker the OS killed mid-run) becomes a :class:`JobFailure` record
    in the returned list — input order, one entry per job — while every
    other job still completes. Each job is attempted up to
    ``1 + retries`` times. ``jobs_meta[i]`` is the job stored on failure
    records (its ``label`` names the record); ``on_outcome(i,
    outcome_or_failure)`` fires as soon as job ``i`` settles (the
    service layer persists results incrementally through it, so a crash
    loses at most in-flight jobs).

    With ``jobs == 1`` everything runs inline in the calling process —
    identical results, no pool (and no isolation from a job that kills
    the *process*; the pool path survives even that).
    """
    n = len(job_args)
    if len(jobs_meta) != n:
        raise ValueError("jobs_meta must match job_args")
    results: List[object] = [None] * n
    attempts = [0] * n

    def settle(i: int, status: str, value: object, wall: float) -> bool:
        """Record one attempt; True once the job has a final outcome."""
        attempts[i] += 1
        if status == "ok":
            results[i] = value
        elif attempts[i] > retries:
            job = jobs_meta[i]
            results[i] = JobFailure(
                job=job, label=getattr(job, "label", str(job)),
                attempts=attempts[i], wall_s=wall, **value)
        else:
            return False
        if on_outcome is not None:
            on_outcome(i, results[i])
        return True

    if jobs == 1:
        for i in range(n):
            while True:
                status, value, wall = _run_guarded((fn, job_args[i]))
                if settle(i, status, value, wall):
                    break
        return results

    # Pool phase: one future per job, collected as they complete.
    leftovers: List[int] = []
    with _executor(jobs) as pool:
        futures = {pool.submit(_run_guarded, (fn, job_args[i])): i
                   for i in range(n)}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                i = futures[fut]
                try:
                    status, value, wall = fut.result()
                except BrokenProcessPool:
                    # The job that broke the pool and the innocents
                    # whose futures it cancelled are indistinguishable
                    # here; all of them retry in isolation below.
                    leftovers.append(i)
                    continue
                except Exception as exc:  # pragma: no cover - pickling
                    status, value, wall = ("error", _worker_died_info(exc),
                                           0.0)
                if not settle(i, status, value, wall):
                    leftovers.append(i)

    # Isolation phase: survivors of a broken pool and jobs with retry
    # budget left each get a fresh single-worker pool, so a poison job
    # that kills its worker exhausts only its own attempts.
    for i in leftovers:
        while results[i] is None:
            try:
                with _executor(1) as solo:
                    status, value, wall = solo.submit(
                        _run_guarded, (fn, job_args[i])).result()
            except BrokenProcessPool as exc:
                status, value, wall = ("error", _worker_died_info(exc), 0.0)
            except Exception as exc:  # pragma: no cover - pickling
                status, value, wall = ("error", _worker_died_info(exc), 0.0)
            settle(i, status, value, wall)
    return results


def split_outcomes(outcomes: Sequence[object]
                   ) -> Tuple[List[Outcome], List[JobFailure]]:
    """Partition a sweep's outcome list into (successes, failures)."""
    good = [o for o in outcomes if not isinstance(o, JobFailure)]
    bad = [o for o in outcomes if isinstance(o, JobFailure)]
    return good, bad


# -- the driver ------------------------------------------------------------

def _warm(specs: Sequence[JobSpec], config: SystemConfig,
          settings: RunnerSettings, cache_dir: Optional[str],
          jobs: int) -> None:
    """Warm phase: build each distinct (mix, effective config)'s trace
    and baseline cache entries exactly once before fanning out, so
    concurrent jobs hit the cache instead of racing to regenerate them.

    Warm failures are swallowed: the fan-out jobs of an unwarmable mix
    produce their own per-job failure records, which is where the error
    belongs.
    """
    if cache_dir is None:
        return
    targets = list(dict.fromkeys(
        (spec.mix, KINDS[spec.kind].overlay(config, spec))
        for spec in specs))
    execute_jobs(_warm_mix,
                 [(cfg, settings, mix, cache_dir) for mix, cfg in targets],
                 [mix for mix, _ in targets], jobs)


def run_specs(specs: Sequence[JobSpec],
              config: Optional[SystemConfig] = None,
              settings: Optional[RunnerSettings] = None,
              jobs: Optional[int] = None,
              cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR,
              telemetry_dir: Optional[PathLike] = None,
              retries: int = 0,
              fail_labels: Iterable[str] = (),
              on_outcome: Optional[Callable[[int, object], None]] = None
              ) -> List[Union[Outcome, JobFailure]]:
    """Run every spec, in parallel; outcomes come back in spec order.

    Parameters
    ----------
    specs
        The sweep's points, from the ``*_specs`` builders (any mix of
        kinds); unknown mixes or policies raise before any work starts.
    jobs
        Worker processes; ``None`` picks :func:`default_jobs`, ``1``
        runs everything inline (no pool, no warm phase).
    cache_dir
        Root of the on-disk artifact cache shared by all workers
        (default ``.repro_cache``). ``None`` disables caching — each
        worker then regenerates its mix's trace and baseline.
    telemetry_dir
        When given, each run streams its per-epoch JSONL record file
        into this directory (see EXPERIMENTS.md for the schema).
    retries
        Extra attempts per job before its failure is recorded.
    fail_labels
        Labels (``mix/<point>``) whose jobs raise
        :class:`InjectedFailure` instead of running: the deterministic
        failure-injection hook of the service tests and smoke.
    on_outcome
        ``on_outcome(i, outcome_or_failure)`` fires as job ``i`` settles.

    A job that raises (or whose worker dies) does not abort the sweep:
    its slot in the returned list holds a :class:`JobFailure` record
    with the worker-side traceback, and every other job completes.
    """
    specs = list(specs)
    check_specs(specs)
    config = config if config is not None else scaled_config()
    settings = settings if settings is not None else RunnerSettings()
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cache_dir = str(cache_dir) if cache_dir is not None else None
    if telemetry_dir is not None:
        Path(telemetry_dir).mkdir(parents=True, exist_ok=True)
        telemetry_dir = str(telemetry_dir)
    if jobs > 1:
        _warm(specs, config, settings, cache_dir, jobs)
    fail = frozenset(fail_labels)
    job_args = [(spec, config, settings, cache_dir, telemetry_dir, fail)
                for spec in specs]
    return execute_jobs(_run_spec, job_args, specs, jobs, retries=retries,
                        on_outcome=on_outcome)


def run_sweep(mixes: Sequence[str],
              policies: Sequence[str] = ("MemScale",),
              config: Optional[SystemConfig] = None,
              settings: Optional[RunnerSettings] = None,
              jobs: Optional[int] = None,
              cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR,
              telemetry_dir: Optional[PathLike] = None,
              retries: int = 0) -> List[Union[Outcome, JobFailure]]:
    """Evaluate every ``mix`` under every ``policy``, in parallel: the
    paper's (mix x policy) sweep, :func:`run_specs` over
    :func:`policy_specs`. Outcomes are in ``(mix, policy)`` input order
    regardless of completion order."""
    return run_specs(policy_specs(mixes, policies), config=config,
                     settings=settings, jobs=jobs, cache_dir=cache_dir,
                     telemetry_dir=telemetry_dir, retries=retries)


def generate_traces(mixes: Sequence[str],
                    settings: Optional[RunnerSettings] = None,
                    jobs: Optional[int] = None,
                    cache_dir: Optional[PathLike] = DEFAULT_CACHE_DIR
                    ) -> Dict[str, WorkloadTrace]:
    """Build (or load from cache) the traces of ``mixes``, in parallel."""
    mixes = list(mixes)
    check_mixes(mixes)
    settings = settings if settings is not None else RunnerSettings()
    if jobs is None:
        jobs = default_jobs()
    cache_dir = str(cache_dir) if cache_dir is not None else None
    args = [(settings, mix, cache_dir) for mix in mixes]
    if jobs == 1 or len(mixes) <= 1:
        pairs = [_build_trace(a) for a in args]
    else:
        with _executor(jobs) as pool:
            pairs = list(pool.map(_build_trace, args))
    return dict(pairs)


def sweep_table(outcomes: Sequence[object]) -> List[List[str]]:
    """Rows (mix, point, savings, CPI, wall) for a plain-text report.

    :class:`JobFailure` entries render as FAILED rows carrying the
    exception class, so a partially failed sweep still prints.
    """
    rows = []
    for o in outcomes:
        if isinstance(o, JobFailure):
            rows.append([
                o.mix, o.label.split("/", 1)[-1],
                "FAILED", o.error_type, "-", f"{o.wall_s:.2f}s",
            ])
            continue
        rows.append([
            o.mix, o.point,
            f"{o.comparison.memory_energy_savings:+.1%}",
            f"{o.comparison.system_energy_savings:+.1%}",
            f"{o.comparison.worst_cpi_increase:+.1%}",
            f"{o.wall_s:.2f}s",
        ])
    return rows
