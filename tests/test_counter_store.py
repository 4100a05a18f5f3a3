"""One counter store: ``/stats`` is a view over the metrics registry.

After a fixed select/zoom/mutate trace, every counter ``/stats``
reports must equal its ``GET /metrics`` sample — on a single-process
server and on a 2-worker supervised cluster, where the front's
``totals`` must also equal the sum of its workers.  The ``/stats`` key
sets (including every key the perfbench ledger reads) are pinned here.
"""

from __future__ import annotations

import http.client
import re

import pytest

from repro.service import shm as shm_mod
from repro.service.cache import SharedCacheManager
from repro.service.client import ServiceClient
from repro.service.registry import DatasetRegistry
from repro.service.server import start_in_thread
from repro.service.state import ServiceState
from repro.service.supervisor import start_supervised

N = 300
RADIUS = 0.1
ENGINE = {"name": "grid", "options": {"cell_size": RADIUS}}

LOOKUPS = "repro_cache_lookups_total"

#: Top-level ``/stats`` counter -> (family, labels) of its ``/metrics``
#: sample.
STATE_COUNTERS = {
    "computations": ("repro_computations_total", {}),
    "coalesced_requests": ("repro_coalesced_requests_total", {}),
    "degraded_responses": ("repro_degraded_responses_total", {}),
    "inflight": ("repro_inflight_requests", {}),
    "mutations_applied": ("repro_mutations_applied_total", {}),
    "queue_depth": ("repro_executor_queue_depth", {}),
}
#: ``/stats`` ``cache`` counter -> (family, labels); ``hits`` also
#: counts stale hits, so it is checked separately.
CACHE_COUNTERS = {
    "misses": (LOOKUPS, {"outcome": "miss"}),
    "stale_served": (LOOKUPS, {"outcome": "stale"}),
    "builds": ("repro_adjacency_builds_total", {}),
    "shm_hits": ("repro_shm_attaches_total", {}),
    "shm_stores": ("repro_shm_stores_total", {}),
    "migrations": ("repro_cache_migrations_total", {}),
    "evictions": ("repro_cache_evictions_total", {}),
    "expirations": ("repro_cache_expirations_total", {}),
    "coalesced_builds": ("repro_cache_coalesced_builds_total", {}),
    "build_failures": ("repro_cache_build_failures_total", {}),
    "corrupt_entries": ("repro_cache_corrupt_entries_total", {}),
}
#: ``/stats`` ``cache.backing`` counters; each is the ``event`` label
#: of its shm-store sample.
BACKING_COUNTERS = (
    "attaches", "publishes", "takeovers", "checksum_failures", "wait_timeouts",
)
#: Front ``/stats`` ``supervisor`` counter -> family.
SUPERVISOR_COUNTERS = {
    "replays": "repro_request_replays_total",
    "restarts": "repro_worker_restarts_total",
    "crashes": "repro_worker_crashes_total",
    "stall_kills": "repro_worker_stall_kills_total",
    "quarantined": "repro_workers_quarantined_total",
    "mutations_routed": "repro_mutations_routed_total",
    "mutations_replayed": "repro_mutations_replayed_total",
}
#: Front ``totals`` key -> where each worker's ``/stats`` reports it.
TOTALS = {
    "computations": ("computations",),
    "coalesced_requests": ("coalesced_requests",),
    "degraded_responses": ("degraded_responses",),
    "inflight": ("inflight",),
    "queue_depth": ("queue_depth",),
    "builds": ("cache", "builds"),
    "shm_hits": ("cache", "shm_hits"),
    "shm_stores": ("cache", "shm_stores"),
    "migrations": ("cache", "migrations"),
    "stale_served": ("cache", "stale_served"),
    "corrupt_entries": ("cache", "corrupt_entries"),
}

#: Pinned ``/stats`` key sets.  They include every key the perfbench
#: ledger reads: ``cache.{hits,misses,builds,migrations}``,
#: ``coalesced_requests``, ``totals.{builds,migrations,
#: coalesced_requests,shm_hits}`` and ``workers[].stats.cache.{hits,
#: misses}``.
STATE_KEYS = {
    "uptime_s", "worker", "workers", "max_inflight", "coalesce",
    "default_timeout_ms", "max_timeout_ms", "requests", "responses",
    "computations", "coalesced_requests", "degraded_responses", "timeouts",
    "inflight", "mutations_applied", "queue_depth", "indexes", "cache",
    "faults", "datasets", "metrics",
}
CACHE_KEYS = {
    "entries", "keys", "hits", "misses", "evictions", "expirations",
    "builds", "coalesced_builds", "build_failures", "stale_entries",
    "stale_served", "corrupt_entries", "shm_hits", "shm_stores",
    "migrations", "backing", "breakers", "bytes", "max_entries",
    "max_bytes", "ttl_s",
}
FRONT_KEYS = {
    "role", "uptime_s", "run_id", "requests", "responses", "supervisor",
    "totals", "workers",
}
WORKER_ENTRY_KEYS = {
    "id", "state", "pid", "port", "generation", "restarts", "crashes",
    "inflight_front", "datasets", "stats",
}


def _metrics(host: str, port: int) -> dict:
    """``GET /metrics`` parsed to ``{(family, labels): value}``."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        text = response.read().decode("utf-8")
    finally:
        conn.close()
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        ident, _, value = line.rpartition(" ")
        name, _, labels = ident.partition("{")
        pairs = frozenset(re.findall(r'(\w+)="([^"]*)"', labels))
        samples[(name, pairs)] = float(value)
    return samples


def _sample(samples: dict, family: str, **labels) -> float:
    """Sum of ``family``'s samples whose labels include ``labels``."""
    wanted = {(key, str(value)) for key, value in labels.items()}
    return sum(
        value
        for (name, pairs), value in samples.items()
        if name == family and wanted <= pairs
    )


def _by_label(samples: dict, family: str, label: str) -> dict:
    out = {}
    for (name, pairs), value in samples.items():
        if name == family:
            key = dict(pairs)[label]
            out[key] = out.get(key, 0) + value
    return out


def _run_trace(client: ServiceClient) -> None:
    """Select, repeat, zoom from the held solution, mutate + repair,
    select the new version, then two rejected requests."""
    first = client.select("uniform", RADIUS, engine=ENGINE)
    client.select("uniform", RADIUS, engine=ENGINE)
    status, _ = client.request(
        "POST",
        "/zoom",
        {
            "dataset": "uniform", "radius": RADIUS, "to": RADIUS / 2,
            "engine": ENGINE,
            "previous": {"selected": first["result"]["selected"]},
        },
    )
    assert status == 200
    client.mutate(
        "uniform",
        inserts=[[0.5, 0.5], [0.25, 0.75]],
        deletes=[0, 1],
        repair={"radius": RADIUS, "previous": first["selected_global"]},
    )
    client.select("uniform", RADIUS, engine=ENGINE)
    for body, status in (
        ({"dataset": "nope", "radius": RADIUS}, 404),
        ({"dataset": "uniform", "radius": -1}, 400),
    ):
        assert client.request("POST", "/select", body)[0] == status


def _assert_state_matches(stats: dict, samples: dict) -> None:
    """Every counter of one server's ``/stats`` equals its sample."""
    for key, (family, labels) in STATE_COUNTERS.items():
        assert stats[key] == _sample(samples, family, **labels), key
    responses = stats["responses"]
    assert stats["timeouts"] == responses.get("408", 0) + responses.get("504", 0)
    cache = stats["cache"]
    for key, (family, labels) in CACHE_COUNTERS.items():
        assert cache[key] == _sample(samples, family, **labels), key
    assert cache["hits"] == _sample(samples, LOOKUPS, outcome="hit") + _sample(
        samples, LOOKUPS, outcome="stale"
    )


def _with_offsets(counts: dict, **extra: int) -> dict:
    out = dict(counts)
    for key, delta in extra.items():
        out[key] = out.get(key, 0) + delta
    return out


def test_single_process_stats_equal_metrics():
    registry = DatasetRegistry()
    registry.register_builtin("uniform", n=N, seed=7)
    registry.promote_live("uniform")
    state = ServiceState(registry, cache=SharedCacheManager(), workers=2)
    with start_in_thread(state) as service:
        with ServiceClient(service.host, service.port) as client:
            _run_trace(client)
            stats = client.stats()
        samples = _metrics(service.host, service.port)

    assert set(stats) == STATE_KEYS
    assert set(stats["cache"]) == CACHE_KEYS
    assert stats["computations"] == 5  # 3 selects, 1 zoom, 1 mutate
    assert stats["mutations_applied"] == 1
    assert stats["cache"]["migrations"] == 1
    assert stats["cache"]["builds"] >= 1 and stats["cache"]["hits"] >= 1
    _assert_state_matches(stats, samples)
    # Between the two reads: the GET /metrics request itself, and the
    # response to GET /stats (written after its body was built).
    assert _by_label(samples, "repro_http_requests_total", "endpoint") == (
        _with_offsets(stats["requests"], **{"GET /metrics": 1})
    )
    assert _by_label(samples, "repro_http_responses_total", "status") == (
        _with_offsets(stats["responses"], **{"200": 1})
    )


@pytest.mark.skipif(
    not shm_mod.shm_available(), reason="POSIX shared memory not available"
)
def test_cluster_rollup_equals_metrics_and_worker_sums():
    cluster = start_supervised(
        ["uniform"], 2, n=N, threads=2, live=True, engine="grid"
    )
    try:
        with ServiceClient(cluster.host, cluster.port) as client:
            _run_trace(client)
            rollup = client.stats()
        samples = _metrics(cluster.host, cluster.port)
    finally:
        cluster.stop()

    assert set(rollup) == FRONT_KEYS
    assert set(rollup["totals"]) == set(TOTALS) | {"inflight_front"}
    assert set(rollup["supervisor"]) == set(SUPERVISOR_COUNTERS) | {
        "mutation_log", "heartbeat_s", "workers",
    }
    workers = [entry["stats"] for entry in rollup["workers"]]
    assert all(stats is not None for stats in workers)
    for entry in rollup["workers"]:
        assert set(entry) == WORKER_ENTRY_KEYS
        assert set(entry["stats"]) == STATE_KEYS
        assert set(entry["stats"]["cache"]) == CACHE_KEYS

    # The front's totals are the sum of its workers ...
    totals = rollup["totals"]
    for key, path in TOTALS.items():
        summed = 0
        for stats in workers:
            value = stats
            for part in path:
                value = value[part]
            summed += value
        assert totals[key] == summed, key
    assert totals["computations"] >= 5 and totals["migrations"] >= 1
    assert rollup["supervisor"]["mutations_routed"] == 1
    # ... and equal the cluster /metrics, which merges the same worker
    # families (the front registers none of them).
    for key, path in TOTALS.items():
        family, labels = (
            STATE_COUNTERS[path[0]] if len(path) == 1 else CACHE_COUNTERS[path[1]]
        )
        assert totals[key] == _sample(samples, family, **labels), key
    for key, family in SUPERVISOR_COUNTERS.items():
        assert rollup["supervisor"][key] == _sample(samples, family), key
    # Every worker's /stats is a view over the snapshot it carries.
    for stats in workers:
        snapshot = {}
        for family, entry in stats["metrics"].items():
            for sample in entry["samples"]:
                if "value" in sample:
                    pairs = frozenset(sample["labels"].items())
                    snapshot[(family, pairs)] = sample["value"]
        _assert_state_matches(stats, snapshot)
        backing = stats["cache"]["backing"]
        for key in BACKING_COUNTERS:
            assert backing[key] == _sample(
                snapshot, shm_mod.SEGMENT_EVENTS, event=key
            ), key
    # The shm store's events reach the cluster /metrics too.
    for key in BACKING_COUNTERS:
        summed = sum(stats["cache"]["backing"][key] for stats in workers)
        assert summed == _sample(samples, shm_mod.SEGMENT_EVENTS, event=key), key
    assert sum(s["cache"]["backing"]["publishes"] for s in workers) >= 1
    # HTTP counts: the cluster family merges the front and the workers.
    # Between the two reads each worker served one more GET /stats (the
    # /metrics fan-out) and answered the rollup's; the front served
    # GET /metrics and answered GET /stats.
    expected = _with_offsets(rollup["requests"], **{"GET /metrics": 1})
    for stats in workers:
        expected = _with_offsets(expected, **stats["requests"])
        expected = _with_offsets(expected, **{"GET /stats": 1})
    assert _by_label(samples, "repro_http_requests_total", "endpoint") == expected
    expected = _with_offsets(rollup["responses"], **{"200": 1})
    for stats in workers:
        expected = _with_offsets(expected, **stats["responses"])
        expected = _with_offsets(expected, **{"200": 1})
    assert _by_label(samples, "repro_http_responses_total", "status") == expected

