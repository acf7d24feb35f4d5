"""Regression guard: the request path posts no per-event closures, and
its events keep their number, their times and their order.

Every request-path continuation (bank arrival, bank completion, bus
burst end, precharge release, core re-issue) is pushed onto the engine
heap as a bound method plus its one argument, a ``[time, seq, callback,
arg]`` entry. A lambda or closure instead costs a function-object build
and a second Python frame per event — about a fifth of a busy run's
wall time — without changing any result, so only a test can catch it.

The test stops a MID1 run (16 cores × 60 k instructions, ~8 k events
dispatched in all) several times part of the way and inspects every
live heap entry whose callable is defined in ``memsim/`` or
``cpu/core_model.py``. At each stop it also checks the engine clock,
the last sequence number allocated and a digest of the live heap
entries (time, sequence number and what the argument is) against
:data:`STOPS`: the golden snapshot pins results, this table pins the
events themselves, so a speed-only change that adds, drops, moves or
reorders an event fails here even where the results happen to agree.
"""

import hashlib
import types
from pathlib import Path

import repro
from repro.config import scaled_config
from repro.memsim.bank import Bank
from repro.memsim.engine import ARG, CALLBACK, SEQ, TIME
from repro.memsim.request import MemRequest
from repro.sim.runner import ExperimentRunner, RunnerSettings
from repro.sim.system import SystemSimulator

PACKAGE = Path(repro.__file__).resolve().parent
GUARDED = (PACKAGE / "memsim", PACKAGE / "cpu" / "core_model.py")

#: Continuations the request path must keep posting (so the check below
#: cannot pass vacuously).
REQUEST_PATH = {"Core._issue", "Bank._arrive", "Bank._bank_done",
                "Bank._free", "Channel._end_burst"}

#: events processed -> (engine clock in ns, last sequence number
#: allocated, :func:`heap_digest`) at that stop. Generated before the
#: request path was cut down to one handler per step; the clocks are
#: exact binary fractions.
STOPS = {
    500: (1821.75, 532, "0a69a038a62e06d0"),
    1000: (3728.0625, 1037, "22057f9cd257b8d3"),
    1500: (5804.875, 1534, "1c6e64709f11780a"),
    2000: (7587.75, 2034, "e8c23fb667fdf82a"),
    2500: (9642.3125, 2535, "bded4514009d0bfd"),
    3000: (11466.125, 3035, "4b01552ba49ea653"),
    3500: (13768.125, 3537, "86da8c23927d3c6b"),
    4000: (15654.0625, 4035, "c36db82e6ce99538"),
    4500: (17873.1875, 4536, "9f3254b891354fec"),
    5000: (20154.3125, 5036, "d0219766ba930460"),
    5500: (22137.15625, 5537, "63ae1bfc334c14dc"),
    6000: (24031.5, 6039, "4c285f1f7fe9dff0"),
}


def describe(arg):
    """What a heap entry's argument is, independent of which handler
    takes it: a request by core, kind and location, a bank by place."""
    if isinstance(arg, MemRequest):
        return (arg.core_id, arg.is_read, tuple(arg.location))
    if isinstance(arg, Bank):
        return (arg._channel_id, arg._rank.global_rank_index, arg.bank_id)
    return arg  # a core's gap, a precharge's free time, or None


def heap_digest(queue):
    """Digest of the live entries' (time, seq, argument) in (time, seq)
    order."""
    rows = sorted((e[TIME], e[SEQ], describe(e[ARG]))
                  for e in queue if e[CALLBACK] is not None)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def dispatched_function(entry):
    """The Python function a live heap entry ends up calling, or None
    for a builtin."""
    target = entry[CALLBACK]
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
    for stop_at, (clock_ns, last_seq, digest) in STOPS.items():
        stopped = engine.run_until_stopped(
            1e12, lambda: engine.events_processed >= stop_at)
        assert stopped and not sim.cluster.all_reached_probe()
        assert (engine.now, engine._seq) == (clock_ns, last_seq), (
            f"after {stop_at} events the engine reads "
            f"({engine.now!r} ns, seq {engine._seq}), not "
            f"({clock_ns!r} ns, seq {last_seq}): an event was added, "
            "dropped or moved in time")
        assert heap_digest(engine._queue) == digest, (
            f"after {stop_at} events the pending events differ from the "
            "recorded ones: an event was reordered or given another "
            "argument")
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
