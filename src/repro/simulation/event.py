"""Events: the unit of synchronisation in the simulation kernel.

An :class:`Event` starts *pending* and fires exactly once, either with a
value (:meth:`Event.succeed`) or with an error (:meth:`Event.fail`).
Processes wait on events by yielding them; arbitrary callbacks may also be
attached.  :class:`Timeout` is an event pre-scheduled to fire after a delay,
and :class:`AllOf` / :class:`AnyOf` compose several events into one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.errors import EventAlreadyFiredError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulation.kernel import Simulator

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Event:
    """A one-shot synchronisation point on the simulation timeline."""

    __slots__ = (
        "sim",
        "name",
        "_value",
        "_error",
        "_callbacks",
        "_processed",
        "_cancelled",
    )

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = _PENDING
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[[Event], None]] = []
        # Has the kernel already delivered this event's callbacks?
        self._processed = False
        # Lazy cancellation (see repro.simulation.timer_wheel): the
        # kernel skips cancelled entries at drain time.
        self._cancelled = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (successfully or not)."""
        return self._value is not _PENDING or self._error is not None

    @property
    def ok(self) -> bool:
        """True if the event fired successfully."""
        return self._value is not _PENDING and self._error is None

    @property
    def failed(self) -> bool:
        """True if the event fired with an error."""
        return self._error is not None

    @property
    def value(self) -> Any:
        """The value the event fired with.

        Raises the stored error for failed events and
        :class:`EventAlreadyFiredError` misuse errors for pending ones.
        """
        if self._error is not None:
            raise self._error
        if self._value is _PENDING:
            raise EventAlreadyFiredError(
                f"event {self._label()} has not fired yet"
            )
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> Event:
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING or self._error is not None:
            raise EventAlreadyFiredError(f"event {self._label()} fired twice")
        self._value = value
        # Due at the current instant: the kernel's FIFO ready deque.
        self.sim._ready.append(self)
        return self

    def fail(self, error: BaseException) -> Event:
        """Fire the event with an error, propagated to waiting processes."""
        if self._value is not _PENDING or self._error is not None:
            raise EventAlreadyFiredError(f"event {self._label()} fired twice")
        if not isinstance(error, BaseException):
            raise TypeError("Event.fail() requires an exception instance")
        self._error = error
        self.sim._ready.append(self)
        return self

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def add_callback(self, callback: Callable[[Event], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been *processed* the callback runs
        immediately; if it fired but is still queued, the callback joins the
        queue like any other.
        """
        if self.triggered and self._processed:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _deliver(self) -> None:
        """Invoke all callbacks.  Called by the kernel exactly once."""
        self._processed = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _label(self) -> str:
        """What to call this event in messages.  Subclasses made by the
        thousand override this instead of formatting a ``name`` that is
        read only when something is printed."""
        return self.name or hex(id(self))

    def __repr__(self) -> str:
        state = "pending"
        if self.failed:
            state = f"failed({self._error!r})"
        elif self.triggered:
            state = f"ok({self._value!r})"
        return f"<Event {self._label()} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay", "_fire_value")

    def __init__(
        self, sim: Simulator, delay: float, value: Any = None, name: str = ""
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ and the kernel's scheduling, spelled out: a
        # stream round sleeps tens of thousands of times.
        self.sim = sim
        self.name = name
        # The value is installed at delivery time; setting it now would
        # make the timeout look already-triggered.
        self._value = _PENDING
        self._error = None
        self._callbacks = []
        self._processed = False
        self._cancelled = False
        self.delay = delay
        self._fire_value = value
        if delay <= 0:
            sim._ready.append(self)
        else:
            sim._wheel.push(sim._now + delay, next(sim._sequence), self)

    def _label(self) -> str:
        return self.name or f"timeout({self.delay})"

    def _deliver(self) -> None:
        # Install the value, then Event._deliver (inlined, as above).
        self._value = self._fire_value
        self._processed = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def cancel(self) -> None:
        """Lazily cancel the timeout: it will never fire, its callbacks
        never run, and the agenda entry is skipped (not delivered) when
        its timer-wheel bucket drains."""
        self._cancelled = True

    # A Timeout is born triggered-at-a-future-time; it cannot be re-fired.
    def succeed(self, value: Any = None) -> Event:  # pragma: no cover
        raise EventAlreadyFiredError("a Timeout fires automatically")

    def fail(self, error: BaseException) -> Event:  # pragma: no cover
        raise EventAlreadyFiredError("a Timeout fires automatically")


class AllOf(Event):
    """Fires when *all* child events have fired.

    The value is a list of child values in the original order.  If any child
    fails, this event fails with the first error observed.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(
        self, sim: Simulator, events: Iterable[Event], name: str = ""
    ) -> None:
        super().__init__(sim, name=name or "all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child.failed:
            self.fail(child.error)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires when *any* child event fires, with ``(index, value)``.

    A failing child fails this event unless another child already fired.
    """

    __slots__ = ("_children",)

    def __init__(
        self, sim: Simulator, events: Iterable[Event], name: str = ""
    ) -> None:
        super().__init__(sim, name=name or "any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self.triggered:
                return
            if child.failed:
                self.fail(child.error)  # type: ignore[arg-type]
            else:
                self.succeed((index, child._value))

        return on_child
