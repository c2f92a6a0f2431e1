"""Per-layer spans and work counters, measured from outside the program.

A :class:`LayerTracer` patches the public entry points of each layer of
``repro`` for the duration of a ``with`` block and restores them on exit:

* ``sim``    -- ``repro.sim.core.Environment.run``;
* ``net``    -- ``FluidNetwork`` public mutators and its completion-timer
  callbacks;
* ``tcp``    -- ``_Direction.transmit`` and ``TcpConnection.connect``
  (generators) plus ``Fabric.connect``;
* ``mpi``    -- ``Protocol.send``, the ``Communicator`` point-to-point and
  collective calls, ``Mailbox.post_recv``/``deliver`` and ``MpiJob.run``;
* ``app``    -- each rank program handed to ``MpiJob.run``;
* ``runner`` -- ``EventTraceHasher.__call__``, the per-event trace hash.

Every wrapped call pushes its layer on one stack; a layer's self time is
its inclusive time minus the time of layers nested inside it.  Generator
entry points are timed per resume, so a rank blocked in the simulator
accrues nothing while it waits.  Engine calls made from inside another
layer's code (``env.timeout`` from TCP, say) count towards that layer.

Events are counted by one trace sink, classified by event type and first
callback; the sink runs inside the engine, so its own cost lands in sim's
self time.  Counters the code already keeps (``FluidNetwork.recomputations``,
``TransferStats``, ``MailboxStats``) are read off the objects created while
the tracer is active.

:func:`count_events` is the cheap, always-on companion: it counts processed
engine events without a per-event hook, from each ``Environment``'s
push counter and queue length around ``run``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator

_clock = time.perf_counter

#: public Communicator calls timed as the mpi layer; the collective subset
#: is also counted
P2P_CALLS = ("send", "recv", "sendrecv", "isend", "irecv", "waitall", "waitany")
COLLECTIVE_CALLS = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "gatherv",
    "scatter", "scatterv", "scan", "allgather", "alltoall", "alltoallv",
)


@contextmanager
def _patched(owner: Any, name: str, replacement: Any) -> Iterator[None]:
    original = owner.__dict__[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def count_events() -> Iterator[list[int]]:
    """Count engine events processed inside the block, at no per-event cost.

    ``Environment.step`` pops exactly one queue entry and only ``run`` calls
    it, so the events ``run`` processes are the entries it pushed minus the
    growth of the queue.  Yields a one-element list holding the running
    total.
    """
    from repro.sim.core import Environment

    total = [0]
    original = Environment.run

    def run(env, *args, **kwargs):
        before = env._seq - len(env._queue)
        try:
            return original(env, *args, **kwargs)
        finally:
            total[0] += env._seq - len(env._queue) - before

    with _patched(Environment, "run", run):
        yield total


class LayerStack:
    """Inclusive-minus-nested timing over a stack of layer frames."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self._frames: list[list] = []

    def push(self, layer: str) -> None:
        self._frames.append([layer, _clock(), 0.0])

    def pop(self) -> None:
        layer, start, nested = self._frames.pop()
        elapsed = _clock() - start
        self.self_s[layer] += elapsed - nested
        if self._frames:
            self._frames[-1][2] += elapsed

    def call(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as ``layer`` for the duration of each call."""
        push, pop = self.push, self.pop

        def timed(*args, **kwargs):
            push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return timed

    def entry_point(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as ``layer``: per call, or per resume of the
        generator it returns when it is a generator function."""
        if not inspect.isgeneratorfunction(fn):
            return self.call(layer, fn)

        def timed(*args, **kwargs):
            return TimedGenerator(fn(*args, **kwargs), self, layer)

        return timed


class TimedGenerator:
    """Generator proxy that times every ``send``/``throw`` as one layer.

    Keeps the wrapped generator's ``__name__``, which the engine uses as
    the process name (and the runner's trace hash folds in).
    """

    def __init__(self, generator: Any, stack: LayerStack, layer: str):
        self._generator = generator
        self._stack = stack
        self._layer = layer
        self.__name__ = getattr(generator, "__name__", "process")

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        self._stack.push(self._layer)
        try:
            return self._generator.send(value)
        finally:
            self._stack.pop()

    def throw(self, *args: Any) -> Any:
        self._stack.push(self._layer)
        try:
            return self._generator.throw(*args)
        finally:
            self._stack.pop()

    def close(self) -> None:
        self._generator.close()


def _nested_code(fn: Callable, name: str) -> Any:
    """Code object of the function ``name`` defined inside ``fn``."""
    for const in fn.__code__.co_consts:
        if inspect.iscode(const) and const.co_name == name:
            return const
    print(f"perfbench: {fn.__qualname__} defines no {name!r}; not classified",
          file=sys.stderr)
    return None


class EventSink:
    """Trace sink counting processed events by kind.

    * ``resume``: the first callback resumes a process (``Process._resume``);
    * ``window_tick``: a TCP per-RTT wake-up, whose first callback is the
      ``fire`` closure of ``repro.tcp.connection._race``;
    * ``completion_timer``: a fluid flow-completion timer, whose callback is
      the ``on_timer`` closure of ``FluidNetwork._schedule_completion``.
      Its callback is swapped for a copy timed as the net layer.
    """

    def __init__(self, stack: LayerStack) -> None:
        from repro.net.fluid import FluidNetwork
        from repro.sim.core import Initialize, Process
        from repro.tcp import connection

        self._stack = stack
        self._initialize = Initialize
        self._resume = Process._resume
        self._fire = _nested_code(connection._race, "fire")
        self._on_timer = _nested_code(FluidNetwork._schedule_completion, "on_timer")
        self.events = 0
        self.processes = 0
        self.resume = 0
        self.window_tick = 0
        self.completion_timer = 0

    def __call__(self, tick: int, priority: int, seq: int, event: Any) -> None:
        self.events += 1
        if type(event) is self._initialize:
            self.processes += 1
        callbacks = event.callbacks
        if not callbacks:
            return
        first = callbacks[0]
        if getattr(first, "__func__", None) is self._resume:
            self.resume += 1
            return
        code = getattr(first, "__code__", None)
        if code is None:
            return
        if code is self._fire:
            self.window_tick += 1
        elif code is self._on_timer:
            self.completion_timer += 1
            callbacks[0] = self._stack.call("net", first)


class LayerTracer:
    """Patch every layer's entry points; read spans and counters after."""

    def __init__(self) -> None:
        self.stack = LayerStack()
        self.calls: Counter = Counter()
        self.fluids: list = []
        self.connections: list = []
        self.jobs: list = []
        self.sink: "EventSink | None" = None

    def _counted(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _collected(self, into: list, fn: Callable, returns: bool) -> Callable:
        """``fn`` with its instance (``returns=False``) or result kept."""

        def collected(*args, **kwargs):
            result = fn(*args, **kwargs)
            into.append(result if returns else args[0])
            return result

        return collected

    @contextmanager
    def active(self) -> Iterator["LayerTracer"]:
        from repro.mpi.communicator import Communicator
        from repro.mpi.matching import Mailbox
        from repro.mpi.protocol import Protocol
        from repro.mpi.runtime import MpiJob
        from repro.mpi.tracing import EventTraceHasher
        from repro.net.fluid import FluidNetwork
        from repro.sim import core
        from repro.tcp.connection import Fabric, TcpConnection, _Direction

        stack = self.stack
        timed = stack.entry_point
        original_job_run = MpiJob.run

        def job_run(job, program, *args, **kwargs):
            def timed_program(ctx):
                return TimedGenerator(program(ctx), stack, "app")

            return original_job_run(job, timed_program, *args, **kwargs)

        patches = [
            (core.Environment, "run", timed("sim", core.Environment.run)),
            (FluidNetwork, "__init__",
             self._collected(self.fluids, FluidNetwork.__init__, returns=False)),
            (FluidNetwork, "start_flow",
             self._counted("net.flows", timed("net", FluidNetwork.start_flow))),
            (FluidNetwork, "set_rate_cap",
             self._counted("net.rate_cap_calls", timed("net", FluidNetwork.set_rate_cap))),
            (FluidNetwork, "set_pipe_capacity", timed("net", FluidNetwork.set_pipe_capacity)),
            (FluidNetwork, "abort_flow", timed("net", FluidNetwork.abort_flow)),
            (_Direction, "transmit", timed("tcp", _Direction.transmit)),
            (TcpConnection, "connect", timed("tcp", TcpConnection.connect)),
            (Fabric, "connect",
             self._collected(self.connections, timed("tcp", Fabric.connect), returns=True)),
            (Protocol, "send", self._protocol_send(Protocol.send)),
            (Mailbox, "post_recv", timed("mpi", Mailbox.post_recv)),
            (Mailbox, "deliver", timed("mpi", Mailbox.deliver)),
            (MpiJob, "__init__", self._collected(self.jobs, MpiJob.__init__, returns=False)),
            (MpiJob, "run", timed("mpi", job_run)),
            (EventTraceHasher, "__call__",
             self._counted("runner.hashed_events",
                           timed("runner", EventTraceHasher.__call__))),
        ]
        patches += [
            (Communicator, name, timed("mpi", getattr(Communicator, name)))
            for name in P2P_CALLS
        ]
        patches += [
            (Communicator, name,
             self._counted("mpi.collectives", timed("mpi", getattr(Communicator, name))))
            for name in COLLECTIVE_CALLS
        ]
        self.sink = EventSink(stack)
        with ExitStack() as exits:
            for owner, name, replacement in patches:
                exits.enter_context(_patched(owner, name, replacement))
            core.install_trace_sink(self.sink)
            exits.callback(core.remove_trace_sink, self.sink)
            yield self

    def _protocol_send(self, original: Callable) -> Callable:
        """``Protocol.send`` timed per resume, counting rendezvous sends."""
        calls, stack = self.calls, self.stack

        def send(protocol, src, dst, tag, nbytes, *rest):
            calls["mpi.messages"] += 1
            if nbytes > protocol.impl.eager_threshold:
                calls["mpi.rendezvous"] += 1
            return TimedGenerator(
                original(protocol, src, dst, tag, nbytes, *rest), stack, "mpi"
            )

        return send

    def metrics(self) -> dict[str, float]:
        """Every per-layer count and self time gathered so far."""
        sink = self.sink
        if sink is None:
            raise RuntimeError("the tracer was never activated")
        directions = [d for c in self.connections for d in (c.forward, c.backward)]
        window_rounds = sum(d.stats.window_rounds for d in directions)
        flows = self.calls["net.flows"]
        self_s = self.stack.self_s
        return {
            "sim.events": sink.events,
            "sim.events.resume": sink.resume,
            "sim.events.window_tick": sink.window_tick,
            "sim.events.completion_timer": sink.completion_timer,
            "sim.processes": sink.processes,
            "sim.self_s": self_s["sim"],
            "net.flows": flows,
            "net.rate_cap_calls": self.calls["net.rate_cap_calls"],
            "net.recomputations": sum(f.recomputations for f in self.fluids),
            "net.solve_rounds": sum(f.solve_rounds for f in self.fluids),
            "net.timer_useful": flows / sink.completion_timer if sink.completion_timer else 0.0,
            "net.self_s": self_s["net"],
            "tcp.connections": len(self.connections),
            "tcp.transfers": sum(d.stats.transfers for d in directions),
            "tcp.window_rounds": window_rounds,
            "tcp.losses": sum(d.stats.losses for d in directions),
            "tcp.tick_useful": window_rounds / sink.window_tick if sink.window_tick else 0.0,
            "tcp.self_s": self_s["tcp"],
            "mpi.messages": self.calls["mpi.messages"],
            "mpi.rendezvous": self.calls["mpi.rendezvous"],
            "mpi.collectives": self.calls["mpi.collectives"],
            "mpi.unexpected": sum(
                m.stats.unexpected for job in self.jobs for m in job.mailboxes
            ),
            "mpi.self_s": self_s["mpi"],
            "app.self_s": self_s["app"],
            "runner.hashed_events": self.calls["runner.hashed_events"],
            "runner.hash_s": self_s["runner"],
        }
