"""Multi-user serving layer: shared datasets, shared cache, async HTTP.

The paper frames DisC diversity as an *interactive* operation — users
tune the radius ``r`` by zooming in and out of a result set — which
makes serving it an online, repeated-radius, shared-dataset workload.
This package is that serving layer:

* :class:`~repro.service.registry.DatasetRegistry` — named datasets
  loaded once per process, handed out as immutable handles;
* :class:`~repro.service.cache.SharedCacheManager` /
  :class:`~repro.service.cache.SharedCacheView` — the process-wide,
  thread-safe adjacency cache keyed ``(dataset, metric, radius
  bucket)`` that sessions and serving indexes attach to instead of
  owning private LRUs;
* :class:`~repro.service.state.ServiceState` — datasets + indexes +
  cache + a bounded thread pool behind one object;
* :class:`~repro.service.server.DiscServer` — the stdlib asyncio
  JSON-over-HTTP front end (``repro serve``) with single-flight
  request coalescing;
* :class:`~repro.service.client.ServiceClient` — a keep-alive stdlib
  client with jittered retry/backoff and idempotent retries;
* :mod:`~repro.service.resilience` — deadline budgets, the per-key
  circuit breaker, retry policies and the structured error contract;
* :mod:`~repro.service.faults` — deterministic, seedable fault
  injection (``repro serve --faults``) driving the chaos suite;
* :mod:`repro.service.load` — the multi-client zoom-trace load
  harness behind ``repro bench --service`` and
  ``results/BENCH_service.json``;
* :mod:`~repro.service.shm` — the refcounted, checksummed
  ``multiprocessing.shared_memory`` segment registry (one adjacency
  build per radius machine-wide, orphan sweep on startup);
* :mod:`~repro.service.supervisor` — the crash-resilient worker pool
  behind ``repro serve --workers N``: failover routing with
  idempotent request replay, heartbeat supervision with exponential
  backoff and crash-loop quarantine, per-worker ``/stats`` rollup.

Counters and locks: every event the stack counts (requests, responses,
computations, cache lookups and builds, replays, restarts, ...) is an
instrument in a :class:`~repro.obs.metrics.MetricsRegistry` owned by
the object that counts it — the shared cache, the serving state (its
server counts HTTP traffic there too) and the supervisor front.
``/stats``, ``cache_info()`` and the front's rollup are views over
those registries' snapshots, and ``GET /metrics`` renders the same
snapshots, so the two endpoints cannot disagree.  The registry lock is
a leaf: it nests under the cache, state and live-dataset locks and
never takes another lock, which the ``REPRO_LOCK_AUDIT=1`` lane checks.
"""

from repro.service.cache import SharedCacheManager, SharedCacheView, radius_bucket
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    wait_until_healthy,
)
from repro.service.faults import FaultConfig, FaultInjector, InjectedFault
from repro.service.registry import BUILTIN_DATASETS, DatasetHandle, DatasetRegistry
from repro.service.resilience import (
    BuildFailed,
    CancellationToken,
    CircuitBreaker,
    CircuitOpen,
    OperationCancelled,
)
from repro.service.server import DiscServer, RunningService, start_in_thread
from repro.service.shm import (
    SharedSegmentStore,
    ShmCacheBacking,
    shm_available,
    sweep_orphans,
)
from repro.service.state import ServiceState, canonical_key
from repro.service.supervisor import (
    Supervisor,
    SupervisorCluster,
    WorkerProcess,
    start_supervised,
)

__all__ = [
    "BUILTIN_DATASETS",
    "BuildFailed",
    "CancellationToken",
    "CircuitBreaker",
    "CircuitOpen",
    "DatasetHandle",
    "DatasetRegistry",
    "DiscServer",
    "FaultConfig",
    "FaultInjector",
    "InjectedFault",
    "OperationCancelled",
    "RetryPolicy",
    "RunningService",
    "ServiceClient",
    "ServiceError",
    "ServiceState",
    "SharedCacheManager",
    "SharedCacheView",
    "SharedSegmentStore",
    "ShmCacheBacking",
    "Supervisor",
    "SupervisorCluster",
    "WorkerProcess",
    "canonical_key",
    "radius_bucket",
    "shm_available",
    "start_in_thread",
    "start_supervised",
    "sweep_orphans",
    "wait_until_healthy",
]
