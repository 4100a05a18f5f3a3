"""One keyed single-flight primitive for the serving layer.

The first caller for a key *leads* the work; callers arriving while it
runs *follow* and receive its result.  One policy, wherever it is used
(dataset loads, serving indexes, adjacency builds, HTTP responses):

* each key has at most one leader;
* a follower waits only within its own
  :class:`~repro.cancellation.CancellationToken`, re-checked every
  :data:`WAKE_S` seconds so ``cancel()`` is seen too;
* a real leader error (:meth:`SingleFlight.fail`) is raised in the
  followers waiting at that moment; the next caller starts fresh;
* a released or cancelled leader frees the key: its followers get
  :data:`RELEASED` and begin again, one of them as the new leader;
* a follower that waited :data:`LIVENESS_S` presumes its leader dead
  and releases the flight itself.

Flights are :class:`concurrent.futures.Future` objects: threads wait
with ``result()``, the event loop through ``asyncio.wrap_future``.  The
lock is a leaf (never held while delivering a result), so callers may
begin and end flights under their own locks.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, Hashable, Optional, Tuple

from repro.cancellation import OperationCancelled

__all__ = ["LIVENESS_S", "RELEASED", "SingleFlight", "WAKE_S"]

#: Seconds a follower waits before presuming its leader dead.
LIVENESS_S = 60.0
#: A follower with a token re-checks it at least this often.
WAKE_S = 0.02
#: A follower's outcome when its leader gave up: begin again.
RELEASED = object()


class Flight:
    """One leader's call, known by one or more keys."""

    __slots__ = ("keys", "owner", "started", "future")

    def __init__(self, keys: Tuple[Hashable, ...], owner) -> None:
        self.keys = keys
        self.owner = owner  # opaque leader identity (e.g. a thread id)
        self.started = time.monotonic()
        self.future: Future = Future()
        # Running futures cannot be cancelled, so a follower giving up
        # on its asyncio wrapper never ends the flight for the others.
        self.future.set_running_or_notify_cancel()


class SingleFlight:
    """Keyed leader/follower coordination (see the module docstring)."""

    _GUARDED_BY = {"_flights": "self._lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, Flight] = {}

    def current(self, key: Hashable) -> Optional[Flight]:
        with self._lock:
            return self._flights.get(key)

    def begin(self, *keys: Hashable, owner=None) -> Tuple[bool, Flight]:
        """``(leading, flight)``: follow the first key's flight in
        progress, or lead a new one under every key — to be ended with
        :meth:`resolve`, :meth:`fail` or :meth:`release`."""
        with self._lock:
            for key in keys:
                if key in self._flights:
                    return False, self._flights[key]
            flight = Flight(keys, owner)
            self._flights.update(dict.fromkeys(keys, flight))
            return True, flight

    def _end(self, key: Hashable, outcome, error: bool = False,
             only: Optional[Flight] = None) -> Optional[Flight]:
        with self._lock:
            flight = self._flights.get(key)
            if flight is None or (only is not None and flight is not only):
                return None
            for alias in flight.keys:
                del self._flights[alias]
        if error:
            flight.future.set_exception(outcome)
        else:
            flight.future.set_result(outcome)
        return flight

    def resolve(self, key: Hashable, value) -> Optional[Flight]:
        """End ``key``'s flight with ``value``; returns the flight."""
        return self._end(key, value)

    def release(self, key: Hashable) -> Optional[Flight]:
        """End ``key``'s flight without a result."""
        return self._end(key, RELEASED)

    def fail(self, key: Hashable, exc: BaseException) -> Optional[Flight]:
        """End ``key``'s flight with the leader's error — or release it
        when ``exc`` is a cancellation (:class:`OperationCancelled`, or
        a non-``Exception`` such as ``asyncio.CancelledError``)."""
        if isinstance(exc, OperationCancelled) or not isinstance(exc, Exception):
            return self.release(key)
        return self._end(key, exc, error=True)

    def run(self, key: Hashable, fn, token=None):
        """``fn()`` once per burst of concurrent callers of ``key``."""
        while True:
            leading, flight = self.begin(key)
            if not leading:
                value = self.wait(flight, token)
                if value is not RELEASED:
                    return value
                continue
            try:
                value = fn()
            except BaseException as exc:
                self.fail(key, exc)
                raise
            self.resolve(key, value)
            return value

    def _slices(self, flight: Flight, token):
        """One follower's wait timeouts: checkpoints ``token`` before
        each, and releases ``flight`` after :data:`LIVENESS_S`."""
        give_up = time.monotonic() + LIVENESS_S
        while True:
            if token is not None:
                token.checkpoint()
            left = give_up - time.monotonic()
            if left <= 0:
                self._end(flight.keys[0], RELEASED, only=flight)
                return
            if token is not None:
                remaining = token.remaining()
                left = min(left, WAKE_S)
                if remaining is not None:
                    left = min(left, remaining)
            yield left

    def wait(self, flight: Flight, token=None):
        """The leader's value or :data:`RELEASED`; raises the leader's
        error, or :class:`OperationCancelled` when ``token`` expires."""
        for timeout in self._slices(flight, token):
            try:
                return flight.future.result(timeout)
            except FutureTimeout:
                pass
        return RELEASED

    async def wait_async(self, flight: Flight, token=None):
        """:meth:`wait` for the event loop."""
        waiter = asyncio.wrap_future(flight.future)
        try:
            for timeout in self._slices(flight, token):
                done, _ = await asyncio.wait((waiter,), timeout=timeout)
                if done:
                    return waiter.result()
            return RELEASED
        finally:
            waiter.cancel()
