"""Discrete-event simulation kernel.

This module provides the minimal but complete event-driven substrate the
rest of the reproduction builds on.  Astral Seer (paper §4.3) notes that
"any discrete-event simulation tool can be used to construct the timeline"
once operator dependencies and execution times are known; this is that
tool.  The fabric simulator and the monitoring fault campaigns also run on
top of it.

The design is deliberately simple and deterministic:

* A :class:`Simulator` owns a priority queue of timestamped events.
* Events with equal timestamps fire in insertion order (stable tiebreak),
  which keeps runs reproducible without wall-clock or randomness.
* :class:`Process` objects are generator-based coroutines that yield
  :class:`Timeout` / :class:`Wait` requests, in the style of SimPy but
  with no external dependency.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


@dataclass
class Event:
    """A schedulable occurrence.

    Events start *pending*, become *triggered* when given a fire time, and
    *processed* once their callbacks have run.  Processes can wait on an
    event; all waiters resume when it fires.
    """

    sim: "Simulator"
    name: str = ""
    value: Any = None

    _callbacks: list[Callable[["Event"], None]] = field(
        default_factory=list, repr=False
    )
    _triggered: bool = field(default=False, repr=False)
    _processed: bool = field(default=False, repr=False)

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event immediately (at the current sim time)."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.value = value
        self._triggered = True
        self.sim._schedule(self.sim.now, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._processed:
            # Fire immediately for late subscribers: the event is history.
            fn(self)
        else:
            self._callbacks.append(fn)

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        super().__init__(sim, name=f"timeout({delay})", value=value)
        self._triggered = True
        sim._schedule(sim.now + delay, self)


class AllOf(Event):
    """Fires once every child event has fired (a join / barrier)."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._waiting = 0
        events = list(events)
        if not events:
            self.succeed([])
            return
        self._values: list[Any] = [None] * len(events)
        self._waiting = len(events)
        for index, event in enumerate(events):
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(event: Event) -> None:
            self._values[index] = event.value
            self._waiting -= 1
            if self._waiting == 0 and not self._triggered:
                self.succeed(self._values)

        return on_child


class AnyOf(Event):
    """Fires as soon as any child event has fired (a select)."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        events = list(events)
        if not events:
            self.succeed(None)
            return
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self._triggered:
            self.succeed(event.value)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` objects; the process sleeps
    until the yielded event fires, then resumes with the event's value.
    The process itself is an event that fires (with the generator's return
    value) when the generator finishes, so processes can wait on each other.
    """

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "process"):
        super().__init__(sim, name=name)
        self._generator = generator
        # Bootstrap: resume at the current time.
        bootstrap = Timeout(sim, 0.0)
        bootstrap.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected Event"
            )
        target.add_callback(self._resume)


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> log = []
    >>> def worker(sim, tag, delay):
    ...     yield sim.timeout(delay)
    ...     log.append((sim.now, tag))
    >>> _ = sim.process(worker(sim, "a", 2.0))
    >>> _ = sim.process(worker(sim, "b", 1.0))
    >>> sim.run()
    >>> log
    [(1.0, 'b'), (2.0, 'a')]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling ------------------------------------------------------
    def _schedule(self, at: float, event: Event) -> None:
        if at < self._now:
            raise SimulationError(
                f"cannot schedule event at {at} before now={self._now}"
            )
        heapq.heappush(self._queue, (at, next(self._counter), event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, at: float, value: Any = None) -> Event:
        """An event firing at the *exact* absolute time ``at`` (>= now).

        ``timeout(delay)`` fires at ``now + delay``, which re-rounds
        when the caller starts from an absolute deadline (``at - now``
        then ``now + (at - now)`` is not ``at`` bitwise).  Schedulers
        that maintain absolute deadlines — the fabric engine keeps a
        whole array of them — need the event to land on
        the deadline's own bits, so this schedules at ``at`` verbatim.
        """
        if at < self._now:
            raise ValueError(
                f"timeout_at({at}) before now={self._now}")
        event = Event(self, name=f"timeout_at({at})", value=value)
        event._triggered = True
        self._schedule(at, event)
        return event

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def process(self, generator: ProcessGenerator,
                name: str = "process") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        at, _, event = heapq.heappop(self._queue)
        self._now = at
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches *until*."""
        while self._queue:
            at = self._queue[0][0]
            if until is not None and at > until:
                self._now = until
                return
            self.step()
        if until is not None and until > self._now:
            self._now = until

    def peek(self) -> Optional[float]:
        """Timestamp of the next event, or None when the queue is empty."""
        return self._queue[0][0] if self._queue else None
