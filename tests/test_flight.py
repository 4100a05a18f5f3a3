"""The single-flight primitive and the shared cache built on it.

Two layers:

* unit tests of :class:`~repro.service.flight.SingleFlight` — one
  leader per key, followers bounded by their own token, leader errors
  handed over, released leaders replaced, the liveness fallback, keys
  aliasing one flight, and the event-loop waiter;
* a hypothesis state machine driving a
  :class:`~repro.service.cache.SharedCacheManager` (which single-flights
  its builds through the primitive) with get, put, fail, abandon,
  cancelled leaders, timed-out and served followers, TTL expiry and
  breaker trips.  Invariants: no follower waits past its deadline,
  builds stay within unique keys + evictions + expirations + failures,
  the hit/miss counters equal the lookups made, and the primitive holds
  exactly the flights the model leads.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancellation_scope,
)
from repro.service import flight as flight_mod
from repro.service.cache import SharedCacheManager
from repro.service.flight import RELEASED, SingleFlight
from repro.service.resilience import BuildFailed, CircuitOpen

#: Scheduling slack allowed past a follower's deadline.
SLACK_S = 0.5


def _start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def _follow(flights, flight, token, out):
    """Wait on ``flight`` in a thread; record the outcome and time."""

    def run():
        t0 = time.perf_counter()
        try:
            out["value"] = flights.wait(flight, token)
        except BaseException as exc:  # recorded for the assertion
            out["error"] = exc
        out["elapsed"] = time.perf_counter() - t0

    return _start(run)


# ----------------------------------------------------------------------
# SingleFlight
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_one_leader_followers_share_its_value(self):
        flights = SingleFlight()
        leading, flight = flights.begin("k")
        assert leading
        again, same = flights.begin("k")
        assert not again and same is flight
        outs = [{} for _ in range(3)]
        threads = [_follow(flights, flight, None, out) for out in outs]
        flights.resolve("k", 42)
        for thread in threads:
            thread.join(timeout=5)
        assert [out["value"] for out in outs] == [42, 42, 42]
        assert flights.current("k") is None

    def test_follower_deadline_is_its_own(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        out = {}
        token = CancellationToken.with_timeout(0.1, source="client")
        _follow(flights, flight, token, out).join(timeout=5)
        assert isinstance(out["error"], OperationCancelled)
        assert out["error"].source == "client"
        assert out["elapsed"] < 0.1 + SLACK_S
        # The leader is untouched by its follower giving up.
        assert flights.current("k") is flight
        flights.resolve("k", 1)

    def test_follower_sees_cancel_within_a_slice(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        token = CancellationToken()
        out = {}
        thread = _follow(flights, flight, token, out)
        time.sleep(0.05)
        cancelled_at = time.perf_counter()
        token.cancel()
        thread.join(timeout=5)
        assert isinstance(out["error"], OperationCancelled)
        assert time.perf_counter() - cancelled_at < flight_mod.WAKE_S + SLACK_S
        flights.release("k")

    def test_leader_error_reaches_waiting_followers_only(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        out = {}
        thread = _follow(flights, flight, None, out)
        boom = RuntimeError("boom")
        time.sleep(0.02)
        flights.fail("k", boom)
        thread.join(timeout=5)
        assert out["error"] is boom
        leading, fresh = flights.begin("k")  # the next caller starts fresh
        assert leading and fresh is not flight
        flights.release("k")

    @pytest.mark.parametrize(
        "end",
        [
            lambda flights: flights.release("k"),
            lambda flights: flights.fail("k", OperationCancelled("deadline")),
        ],
        ids=["release", "cancelled-leader"],
    )
    def test_released_leader_hands_the_key_to_a_follower(self, end):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        out = {}
        thread = _follow(flights, flight, None, out)
        time.sleep(0.02)
        end(flights)
        thread.join(timeout=5)
        assert out["value"] is RELEASED
        leading, _ = flights.begin("k")
        assert leading
        flights.release("k")

    def test_liveness_fallback_releases_a_silent_leader(self, monkeypatch):
        monkeypatch.setattr(flight_mod, "LIVENESS_S", 0.05)
        flights = SingleFlight()
        _, flight = flights.begin("k")
        assert flights.wait(flight, None) is RELEASED
        assert flights.current("k") is None
        # The silent leader finishing late resolves nothing twice.
        assert flights.resolve("k", 1) is None

    def test_keys_alias_one_flight(self):
        flights = SingleFlight()
        leading, flight = flights.begin("idem", "request")
        assert leading
        assert flights.begin("request")[1] is flight
        assert flights.begin("other", "idem")[1] is flight
        flights.resolve("idem", "done")
        assert flights.current("request") is None
        assert flight.future.result() == "done"

    def test_run_calls_fn_once_per_burst(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()

        def build():
            calls.append(1)
            gate.wait(5)
            return "built"

        results = []
        threads = [
            _start(lambda: results.append(flights.run("k", build)))
            for _ in range(4)
        ]
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert results == ["built"] * 4
        assert len(calls) == 1

    def test_event_loop_follower(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")

        async def follow(token):
            return await flights.wait_async(flight, token)

        token = CancellationToken.with_timeout(0.05, source="client")
        t0 = time.perf_counter()
        with pytest.raises(OperationCancelled):
            asyncio.run(follow(token))
        assert time.perf_counter() - t0 < 0.05 + SLACK_S
        timer = threading.Timer(0.05, flights.resolve, ("k", "value"))
        timer.start()
        assert asyncio.run(follow(None)) == "value"
        timer.join()


# ----------------------------------------------------------------------
# SharedCacheManager state machine
# ----------------------------------------------------------------------
KEYS = [("ds", "euclidean", radius) for radius in (0.1, 0.2, 0.3)]


class _Adjacency:
    nbytes = 8


class SharedCacheMachine(RuleBasedStateMachine):
    """Main-thread leads plus follower threads against one manager."""

    def __init__(self) -> None:
        super().__init__()
        # No half-open probes within a run: which rules are enabled
        # must not depend on timing.
        self.manager = SharedCacheManager(
            max_entries=2, failure_threshold=2, breaker_reset_s=3600.0
        )
        self.leading = set()  # keys the main thread leads
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.failures = 0
        self.built_keys = set()

    # -- helpers -------------------------------------------------------
    def _lookup(self, key):
        """One ``get``; counts the lookup by its outcome."""
        value = self.manager.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _put(self, key):
        self.manager.put(key, _Adjacency())
        self.puts += 1
        self.built_keys.add(key)

    def _follower(self, key, timeout_s, out):
        """A follower thread: looks ``key`` up under its own deadline.
        When it ends up leading it abandons, so whether it followed in
        time never changes the cache's contents."""

        def run():
            token = CancellationToken.with_timeout(timeout_s, source="client")
            t0 = time.perf_counter()
            with cancellation_scope(token):
                try:
                    value = self._lookup(key)
                    if value is None:
                        self.manager.abandon(key)
                    out["outcome"] = "value" if value is not None else "led"
                except (OperationCancelled, BuildFailed, CircuitOpen) as exc:
                    out["outcome"] = type(exc).__name__
            out["elapsed"] = time.perf_counter() - t0

        return _start(run)

    def _check_follower(self, thread, out, timeout_s):
        thread.join(timeout=timeout_s + 5)
        assert not thread.is_alive(), "follower never returned"
        assert out["elapsed"] <= timeout_s + SLACK_S, out

    # -- rules -----------------------------------------------------------
    @rule(key=st.sampled_from(KEYS))
    def lookup(self, key):
        try:
            value = self._lookup(key)
        except CircuitOpen:
            return
        if value is None:
            self.leading.add(key)

    def _end_lead(self, key, how):
        """End the main thread's lead of ``key`` one of four ways."""
        self.leading.discard(key)
        if how == "put":
            self._put(key)
        elif how == "fail":
            self.manager.fail(key, RuntimeError("build exploded"))
            self.failures += 1
        elif how == "abandon":
            self.manager.abandon(key)
        else:
            self.manager.fail(key, OperationCancelled("deadline", source="client"))

    @precondition(lambda self: self.leading)
    @rule(data=st.data(), how=st.sampled_from(["put", "fail", "abandon", "cancel"]))
    def end_lead(self, data, how):
        self._end_lead(data.draw(st.sampled_from(sorted(self.leading))), how)

    @precondition(lambda self: self.leading)
    @rule(data=st.data(), timeout_ms=st.integers(5, 60))
    def follower_times_out(self, data, timeout_ms):
        key = data.draw(st.sampled_from(sorted(self.leading)))
        out = {}
        thread = self._follower(key, timeout_ms / 1000.0, out)
        self._check_follower(thread, out, timeout_ms / 1000.0)
        assert out["outcome"] == "OperationCancelled"

    @precondition(lambda self: self.leading)
    @rule(data=st.data(), how=st.sampled_from(["put", "fail", "abandon", "cancel"]))
    def follower_served(self, data, how):
        key = data.draw(st.sampled_from(sorted(self.leading)))
        out = {}
        thread = self._follower(key, 5.0, out)
        time.sleep(0.01)  # usually already following
        self._end_lead(key, how)
        self._check_follower(thread, out, 5.0)
        expected = {
            "put": {"value"},
            # A failure reaches the follower (or it came too late and
            # led itself; an open breaker may refuse it outright).
            "fail": {"BuildFailed", "led", "CircuitOpen", "value"},
            # A released key passes to the follower.
            "abandon": {"led"},
            "cancel": {"led"},
        }[how]
        assert out["outcome"] in expected, (how, out)

    @rule(key=st.sampled_from(KEYS))
    def expire(self, key):
        with self.manager._lock:
            entry = self.manager._entries.get(key)
            if entry is not None:
                entry.expires_at = time.monotonic() - 1.0

    # -- invariants ------------------------------------------------------
    @invariant()
    def flights_match_the_model(self):
        flights = self.manager._flights._flights
        assert set(flights) == self.leading

    @invariant()
    def lookups_match_the_counters(self):
        info = self.manager.cache_info()
        assert info["hits"] == self.hits
        assert info["misses"] == self.misses

    @invariant()
    def builds_are_bounded(self):
        info = self.manager.cache_info()
        assert info["builds"] == self.puts
        assert info["builds"] <= (
            len(self.built_keys)
            + info["evictions"]
            + info["expirations"]
            + self.failures
        )

    def teardown(self):
        for key in list(self.leading):
            self.manager.abandon(key)


TestSharedCacheMachine = SharedCacheMachine.TestCase
TestSharedCacheMachine.settings = settings(
    deadline=None,
    max_examples=40,
    stateful_step_count=25,
    suppress_health_check=[HealthCheck.too_slow],
)
