"""Regression guard: the simulator posts no per-event closures.

Every request-path continuation (MC arrival, bank completion, bus burst
end, precharge release, core re-issue) is posted to the engine as a
bound method plus its one argument, a ``[time, seq, callback, arg]``
heap entry. A lambda or closure instead costs a function-object build
and a second Python frame per event — about a fifth of a busy run's
wall time — without changing any result, so only a test can catch it.

The test stops a MID1 run (16 cores × 60 k instructions, ~8 k events
dispatched in all) several times part of the way and inspects every
live heap entry whose callable is defined in ``memsim/`` or
``cpu/core_model.py``.
"""

import types
from pathlib import Path

import repro
from repro.config import scaled_config
from repro.memsim import engine as engine_module
from repro.memsim.engine import ARG, CALLBACK
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.system import SystemSimulator

PACKAGE = Path(repro.__file__).resolve().parent
GUARDED = (PACKAGE / "memsim", PACKAGE / "cpu" / "core_model.py")

#: Continuations the request path must keep posting (so the check below
#: cannot pass vacuously).
REQUEST_PATH = {"Core._issue", "MemoryController._arrive_at_bank",
                "Bank._bank_done", "Channel._end_burst"}


def dispatched_function(entry):
    """The Python function a live heap entry ends up calling, or None
    for a builtin. Zero-argument posts carry the engine's shim as the
    callback and the caller's callable as the argument."""
    target = entry[CALLBACK]
    if target is engine_module._call:
        target = entry[ARG]
    if isinstance(target, types.MethodType):
        target = target.__func__
    return target if isinstance(target, types.FunctionType) else None


def is_guarded(function):
    path = Path(function.__code__.co_filename).resolve()
    return any(path == root or root in path.parents for root in GUARDED)


def test_live_entries_post_no_lambda_or_closure():
    config = scaled_config()
    runner = ExperimentRunner(
        config=config,
        settings=RunnerSettings(cores=16, instructions_per_core=60_000,
                                seed=2011),
        cache=None)
    governor = runner.make_named_governor("MID1", "MemScale")
    sim = SystemSimulator(config, runner.trace("MID1"), governor)
    engine = sim.engine
    governor.setup(sim.controller)
    sim.cluster.set_target(sim.target_instructions)
    sim.cluster.start()

    seen = set()
    for stop_at in range(500, 6_001, 500):
        stopped = engine.run_until_stopped(
            1e12, lambda: engine.events_processed >= stop_at)
        assert stopped and not sim.cluster.all_reached_probe()
        for entry in engine._queue:
            if entry[CALLBACK] is None:
                continue
            function = dispatched_function(entry)
            if function is None or not is_guarded(function):
                continue
            where = (f"{function.__qualname__} "
                     f"({function.__code__.co_filename}:"
                     f"{function.__code__.co_firstlineno})")
            assert function.__name__ != "<lambda>", (
                f"lambda posted to the engine: {where}; post a bound "
                "method and its argument instead")
            assert ("<locals>" not in function.__qualname__
                    and function.__closure__ is None), (
                f"closure posted to the engine: {where}; post a bound "
                "method and its argument instead")
            seen.add(function.__qualname__)
    assert REQUEST_PATH <= seen, sorted(seen)
