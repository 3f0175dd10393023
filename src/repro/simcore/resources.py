"""Shared resources for the simulation kernel.

Two resource primitives cover everything the reproduction needs:

* :class:`Resource` — a counted semaphore with FIFO queueing (e.g. a GPU
  execution stream that runs one operator at a time, or a limited set of
  repair engineers in the MTTLF model).
* :class:`Store` — an unbounded FIFO message channel (e.g. telemetry
  pipelines between collectors and the analyzer).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .engine import Event, Simulator, SimulationError

__all__ = ["Resource", "Store"]


class Resource:
    """Counted FIFO resource.

    Usage from a process::

        yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def request(self) -> Event:
        """Return an event that fires once a slot is acquired."""
        grant = self.sim.event(name="resource.grant")
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot straight to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def cancel(self, grant: Event) -> bool:
        """Withdraw a queued :meth:`request` grant (preemption support).

        Only requests still waiting in the FIFO can be cancelled; a
        grant that has already fired holds a slot and must be given back
        with :meth:`release`.  Cancellation preserves the FIFO order of
        the remaining waiters.  Returns True when the grant was removed
        from the queue, False when it was unknown or already granted.
        """
        if grant.triggered:
            return False
        try:
            self._waiters.remove(grant)
        except ValueError:
            return False
        return True

    #: Scheduler-facing alias: a queued request that loses its claim.
    preempt = cancel


class Store:
    """Unbounded FIFO channel between processes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event whose value is the next item."""
        ticket = self.sim.event(name="store.get")
        if self._items:
            ticket.succeed(self._items.popleft())
        else:
            self._getters.append(ticket)
        return ticket
