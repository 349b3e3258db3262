"""The simulation kernel: clock, event queue, and process execution.

The :class:`Simulator` separates its agenda into two stores:

* a **ready deque** of entries due at the current instant — scheduling
  a zero-delay event (the overwhelmingly common case: ``succeed()``,
  recompute triggers, process bootstraps) is a plain append, no heap;
* a bucketed **timer wheel** (:mod:`repro.simulation.timer_wheel`) for
  future entries, with lazy cancellation so superseded timers are
  skipped at drain time instead of being delivered as no-ops.

Entries fire in ``(time, sequence)`` order, where ``sequence`` is a
monotonically increasing tie-breaker, so events scheduled at the same
instant fire in FIFO order and runs stay fully deterministic — the
exact ordering contract of the original single-heap agenda.

A :class:`Process` wraps a generator.  Each value the generator yields
must be an :class:`Event`; the process sleeps until that event fires
and is then resumed with the event's value (or the event's error is
thrown into the generator).  A finished process is itself an event,
firing with the generator's return value, so processes can wait for
one another.

Hot paths that only need "call me back at time T" use
:meth:`Simulator.call_at` / :meth:`Simulator.call_later`, which
schedule a bare cancellable :class:`~repro.simulation.timer_wheel.
TimerHandle` instead of allocating an :class:`Event`.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.analysis.sanitizer import get_sanitizer
from repro.errors import LivenessError, SimulationError
from repro.simulation.event import _PENDING, AllOf, AnyOf, Event, Timeout
from repro.simulation.timer_wheel import TimerHandle, TimerWheel

# The wall-clock watchdog samples the clock once per this many timer-
# wheel batch pulls, so the steady-state cost is one integer decrement
# per clock advance.
_WALL_CHECK_INTERVAL = 1024


class _Start:
    """The ready-deque entry that first advances a new process: what the
    kernel delivers and, having no outcome, what the first ``send``
    reads ``None`` from."""

    __slots__ = ("process",)
    _cancelled = False
    _value = None
    _error = None

    def __init__(self, process: Process) -> None:
        self.process = process

    def _deliver(self) -> None:
        self.process._resume(self)


class Process(Event):
    """A running generator, resumable by the kernel; also awaitable."""

    __slots__ = ("_generator",)

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Simulator.spawn() requires a generator, got {type(generator)!r}"
            )
        self._generator = generator
        # Kick-start on the next tick of the current instant.
        sim._ready.append(_Start(self))

    def _resume(self, event: Any) -> None:
        """Advance the generator with the fired event's outcome."""
        if self._value is not _PENDING or self._error is not None:
            # The process already finished (e.g. it was interrupted and
            # the event it had been waiting on fired later).
            return
        while True:
            try:
                if event._error is not None:
                    target = self._generator.throw(event._error)
                else:
                    target = self._generator.send(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as error:  # noqa: BLE001 - process crashed
                self.fail(error)
                return
            if not isinstance(target, Event):
                self.fail(
                    SimulationError(
                        f"process {self.name} yielded {target!r}, expected an Event"
                    )
                )
                return
            if not target._processed:
                target._callbacks.append(self._resume)
                return
            # Already delivered: carry on with its outcome at once.
            event = target

    def interrupt(self, cause: str = "interrupted") -> None:
        """Throw :class:`SimulationError` into the process at the next tick."""
        if self.triggered:
            return
        poke = Event(self.sim, name=f"{self.name}:interrupt")
        poke.add_callback(self._resume)
        poke.fail(SimulationError(cause))


class Simulator:
    """Discrete-event simulator: clock, agenda, and process spawner."""

    def __init__(
        self,
        timer_granularity: float = 0.05,
        wall_deadline_seconds: Optional[float] = None,
    ) -> None:
        """``timer_granularity`` is the wheel bucket width in simulated
        seconds; entries within one bucket are sorted at drain time, so
        the width trades bucket count against per-bucket sort size.

        ``wall_deadline_seconds`` arms the liveness watchdog: a run that
        keeps the *real* clock busy past the deadline raises
        :class:`LivenessError` at the next timer-wheel batch pull
        instead of hanging the caller.  The watchdog observes only the
        wall clock — it never feeds simulated time, so determinism of
        non-timed-out runs is untouched.
        """
        self._now: float = 0.0
        self._ready: deque = deque()
        self._wheel = TimerWheel(timer_granularity)
        self._sequence = itertools.count()
        self._processed_events = 0
        self._batch: list = []
        # Runtime invariant sanitizer (None unless REPRO_SANITIZE /
        # --sanitize): validates clock monotonicity on every batch pull.
        self._sanitizer = get_sanitizer()
        if wall_deadline_seconds is not None and wall_deadline_seconds <= 0:
            raise SimulationError(
                f"wall_deadline_seconds must be > 0, got {wall_deadline_seconds!r}"
            )
        self._wall_deadline_seconds = wall_deadline_seconds
        self._wall_started: Optional[float] = None
        if wall_deadline_seconds is not None:
            # repro-lint: allow[DET002] liveness watchdog deadline; never feeds simulated time
            self._wall_started = time.monotonic()
        self._wall_countdown = _WALL_CHECK_INTERVAL

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events delivered so far (diagnostics)."""
        return self._processed_events

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def all_of(self, events: Any, name: str = "") -> AllOf:
        """Combine events; fires when all have fired."""
        return AllOf(self, events, name=name)

    def any_of(self, events: Any, name: str = "") -> AnyOf:
        """Combine events; fires when the first one fires."""
        return AnyOf(self, events, name=name)

    def spawn(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Bare timers (hot-path API: no Event allocation)
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn()`` at simulated ``time``; returns a cancellable handle.

        Cancellation is lazy — a cancelled handle is skipped when its
        wheel bucket drains, costing O(1) instead of a delivered no-op.
        """
        if time < self._now:
            raise SimulationError(
                f"call_at({time}) is in the past (now={self._now})"
            )
        handle = TimerHandle(fn)
        if time == self._now:
            self._ready.append(handle)
        else:
            self._wheel.push(time, next(self._sequence), handle)
        return handle

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn()`` after ``delay`` time units (cancellable)."""
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        return self.call_at(self._now + delay, fn)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pull_batch(self) -> bool:
        """Advance the clock to the wheel's next instant and stage every
        entry due then onto the ready deque.  False when nothing is left."""
        batch = self._batch
        next_time = self._wheel.pop_batch(batch)
        if next_time is None:
            return False
        if self._sanitizer is not None:
            self._sanitizer.check_time(self._now, next_time)
        if next_time < self._now:  # pragma: no cover - defensive
            raise SimulationError(
                f"time went backwards: {next_time} < {self._now}"
            )
        if self._wall_started is not None:
            self._wall_countdown -= 1
            if self._wall_countdown <= 0:
                self._wall_countdown = _WALL_CHECK_INTERVAL
                self._check_wall_deadline()
        self._now = next_time
        self._ready.extend(batch)
        batch.clear()
        return True

    def _check_wall_deadline(self) -> None:
        # repro-lint: allow[DET002] liveness watchdog deadline; never feeds simulated time
        elapsed = time.monotonic() - self._wall_started
        if elapsed > self._wall_deadline_seconds:
            raise LivenessError(
                f"simulation exceeded its wall-clock budget "
                f"({elapsed:.1f}s > {self._wall_deadline_seconds:g}s at "
                f"simulated t={self._now:g}, "
                f"{self._processed_events} events delivered)"
            )

    def step(self) -> bool:
        """Deliver the next event.  Returns False if the agenda is empty."""
        ready = self._ready
        while True:
            if not ready:
                if not self._pull_batch():
                    return False
            obj = ready.popleft()
            if obj._cancelled:
                continue
            self._processed_events += 1
            obj._deliver()
            return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the agenda empties or the clock passes ``until``.

        Returns the final simulated time.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        ready = self._ready
        if until is None:
            # Unbounded run: inline the delivery loop (no per-event
            # step() call, no wheel peek between events).
            while True:
                while ready:
                    obj = ready.popleft()
                    if obj._cancelled:
                        continue
                    self._processed_events += 1
                    obj._deliver()
                if not self._pull_batch():
                    return self._now
        while True:
            # Purge cancelled entries here rather than via step(), which
            # would otherwise pull the next wheel batch — possibly past
            # ``until`` — just to find something deliverable.
            while ready and ready[0]._cancelled:
                ready.popleft()
            if ready:
                if not self.step():  # pragma: no cover - defensive
                    break
                continue
            next_time = self._wheel.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                return self._now
            self.step()
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` fires, then return its value.

        Unlike :meth:`run`, this works when perpetual background processes
        (e.g. bandwidth jitter) keep the agenda non-empty forever.
        """
        ready = self._ready
        while event._value is _PENDING and event._error is None:
            if not ready and not self._pull_batch():
                raise SimulationError(
                    f"agenda drained before event {event._label()!r} fired"
                )
            obj = ready.popleft()
            if obj._cancelled:
                continue
            self._processed_events += 1
            obj._deliver()
        return event.value

    def run_process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Any:
        """Spawn ``generator``, run to completion, and return its result.

        Convenience wrapper used heavily in tests and the experiment
        harness.  Raises whatever the process raised.
        """
        process = self.spawn(generator, name=name)
        self.run()
        if not process.triggered:
            raise SimulationError(
                f"process {process.name} deadlocked: agenda empty but not done"
            )
        return process.value
