"""High-level public API: the typed request pipeline and sessions.

The pipeline has three layers:

1. **Requests** (:mod:`repro.requests`): :class:`~repro.requests.SelectRequest`
   + :class:`~repro.requests.EngineSpec` are typed, validated,
   JSON-round-trippable descriptions of a diversification request.
   ``validate()`` runs once, up front, and fails identically on empty
   and non-empty data.
2. **Engines** (:mod:`repro.engines`): index engines self-register with
   capability descriptors; ``engine="auto"`` is a registry policy over
   capabilities and workload shape (paper-fidelity M-tree at paper
   scale, CSR/blocked engines beyond it or under ``accelerate=True``),
   not a hard-coded default.
3. **Sessions**: :class:`DiscSession` is the stateful façade for the
   paper's interactive mode (Section 3) — index once, then select /
   zoom / compare.  It installs a radius-keyed LRU adjacency cache so
   zoom and repeated-radius selects reuse the materialised CSR/blocked
   adjacency instead of rebuilding it, and offers ``select_many`` for
   batch selection over the shared index.

:func:`execute_request` is the one-shot entry point a service would
expose: request in, :class:`~repro.core.result.DiscResult` out (both
sides serialisable via ``to_dict``/``from_dict``).

Backwards-compatible entry points
---------------------------------
:func:`build_index` and :func:`disc_select` keep their historical
signatures and delegate to the pipeline.

Example
-------
>>> from repro import DiscSession, uniform_dataset
>>> data = uniform_dataset(n=500, seed=1)
>>> session = DiscSession(data)
>>> result = session.select(radius=0.1)
>>> finer = session.zoom_in(0.05)
>>> assert set(result.selected) <= set(finer.selected)

Input contracts
---------------
Unknown engines, engine options and method keywords are rejected with
the registry's capability-derived messages.  Radii are validated where
they are consumed: NaN and ±inf raise ``ValueError`` from every entry
point, 0 is a valid degenerate radius, and an empty dataset yields an
empty result instead of erroring — after the *whole* request has been
validated, so a typo never ships green until the first real request.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.baselines import (
    kmedoids_select,
    maxmin_select,
    maxsum_select,
    solution_summary,
)
from repro.core import (
    DiscResult,
    greedy_c,
    local_zoom,
    verify_disc,
    zoom_in,
    zoom_out,
)
from repro.datasets import Dataset
from repro.distance import get_metric
from repro.engines import AdjacencyCache
from repro.index import NeighborIndex
from repro.index.base import IndexStats
from repro.requests import METHODS, EngineSpec, SelectRequest
from repro.validation import validate_radius

__all__ = [
    "build_index",
    "disc_select",
    "execute_request",
    "DiscSession",
]


def resolve_data(data, metric):
    """Accept a Dataset or a raw array (+ metric) uniformly.

    Resolution is idempotent: an already-resolved ``(ndarray, Metric)``
    pair passes through unchanged (``get_metric`` accepts
    :class:`~repro.distance.Metric` instances), so layered entry points
    resolve exactly once — no double-resolution of metric objects.
    """
    if isinstance(data, Dataset):
        return data.points, data.metric
    if metric is None:
        raise ValueError("metric is required when passing a raw point array")
    return np.asarray(data), get_metric(metric)


# Backwards-compatible private alias (pre-pipeline name).
_resolve = resolve_data


def build_index(
    data: Union[Dataset, np.ndarray],
    metric=None,
    *,
    engine: str = "auto",
    **engine_options,
) -> NeighborIndex:
    """Construct a neighbor index over ``data`` (thin registry shim).

    ``engine`` is a registered engine name (``"brute"``, ``"grid"``,
    ``"kdtree"``, ``"mtree"``) or ``"auto"`` — the capability policy of
    :mod:`repro.engines.registry`: the M-tree (the paper's substrate,
    exact node-access accounting) up to paper scale, a CSR-capable
    engine beyond it.  Extra keyword options go to the engine
    constructor (e.g. ``capacity=...`` for the M-tree, ``cell_size=...``
    for the grid, ``leafsize=...`` for the KD-tree) and also *constrain*
    ``auto``: only engines accepting the given option names are
    considered, so ``engine="auto", capacity=10`` still lands on the
    M-tree.

    ``accelerate`` (in ``engine_options``) gates the CSR neighborhood
    engine of :mod:`repro.graph.csr`: ``"auto"`` (default) lets every
    CSR-capable engine materialise the fixed-radius adjacency once and
    run the heuristics as vectorised array ops (upgrading to the
    blocked adjacency of :mod:`repro.graph.blocked` on clustered
    workloads); ``False`` forces the legacy per-query path; ``True``
    insists on the engine and is rejected for engines with no CSR
    builder (the M-tree, whose per-query node-access accounting is the
    paper's cost metric).
    """
    points, resolved_metric = resolve_data(data, metric)
    spec = EngineSpec(name=engine, options=engine_options).validate()
    return spec.build(points, resolved_metric)


def _empty_result(request: SelectRequest) -> DiscResult:
    """The degenerate answer for an empty dataset (validated request)."""
    return DiscResult(
        selected=[],
        radius=request.radius,
        algorithm=request.empty_result_label(),
        stats=IndexStats(),
        meta={"empty_input": True},
    )


def execute_request(
    data: Union[Dataset, np.ndarray],
    request: Union[SelectRequest, dict],
    *,
    metric=None,
) -> DiscResult:
    """Run one :class:`~repro.requests.SelectRequest` end to end.

    The service entry point: validates the request (radius, method,
    method keywords, engine spec — all before touching the data),
    resolves the engine through the registry, builds the index and runs
    the heuristic.  An empty dataset returns an empty
    :class:`~repro.core.result.DiscResult` carrying the same
    variant-aware algorithm label a real run would have produced.

    ``request`` may be a :class:`~repro.requests.SelectRequest` or its
    ``to_dict()`` form (the wire format).
    """
    request = SelectRequest.coerce(request).validate()
    points, resolved_metric = resolve_data(data, metric)
    if points.shape[0] == 0:
        # Nothing to cover: the unique r-DisC diverse subset is empty.
        # The request was already validated in full above, so a typo'd
        # engine, engine option or heuristic kwarg fails here exactly
        # as it would on non-empty data.
        return _empty_result(request)
    index = request.engine.build(points, resolved_metric, radius=request.radius)
    algorithm = METHODS[request.method]
    return algorithm(index, request.radius, **dict(request.method_options))


def disc_select(
    data: Union[Dataset, np.ndarray],
    radius: float,
    *,
    metric=None,
    method: str = "greedy",
    engine: str = "auto",
    engine_options: Optional[dict] = None,
    **method_options,
) -> DiscResult:
    """One-shot DisC diversification (thin :func:`execute_request` shim).

    ``method`` is one of ``"basic"``, ``"greedy"``, ``"greedy-c"``,
    ``"fast-c"``; remaining keyword arguments go to the heuristic
    (``prune=True``, ``update_variant="white"``, ``lazy=True``, ...).

    The radius must be finite and non-negative; an empty dataset yields
    an empty result, so service callers need no special-casing on
    either side.  Equivalent to building a
    :class:`~repro.requests.SelectRequest` and calling
    :func:`execute_request` — which is exactly what it does.
    """
    request = SelectRequest(
        radius=radius,
        method=method,
        method_options=method_options,
        engine=EngineSpec(name=engine, options=engine_options or {}),
    )
    return execute_request(data, request, metric=metric)


class DiscSession:
    """Stateful façade: index once, then select / zoom / compare.

    The paper's interactive mode (Section 3) is a session workload:
    select once, then zoom in/out adaptively.  A session builds the
    index a single time, keeps the last :class:`DiscResult` so zooming
    picks up from the solution the user is looking at, and installs a
    radius-keyed LRU adjacency cache (:class:`~repro.engines.cache.
    AdjacencyCache`) on the index so repeated radii — the zoom
    back-and-forth pattern — reuse the materialised CSR/blocked
    adjacency instead of rebuilding it.

    Parameters
    ----------
    data, metric:
        A :class:`~repro.datasets.base.Dataset`, or a raw point array
        plus a metric (name or :class:`~repro.distance.Metric`
        instance — resolution is idempotent).
    engine:
        Registered engine name or ``"auto"`` (registry policy).
    cache_radii:
        LRU budget: how many radii worth of adjacency to keep
        materialised at once (default 8; the cache is also installed
        for engines that never materialise adjacency, where it is
        simply never filled).
    adjacency_cache:
        An :class:`~repro.engines.cache.AdjacencyCache` to install
        instead of the session-private LRU — in particular a
        :class:`~repro.service.cache.SharedCacheView`, which lets many
        sessions over the same dataset share one process-wide
        adjacency store (the multi-user serving pattern of
        :mod:`repro.service`).  When given, ``cache_radii`` is
        ignored; the cache's own budgets apply.
    engine_options:
        Engine constructor options; ``accelerate`` is extracted and
        applied as the CSR gate.
    """

    def __init__(
        self,
        data: Union[Dataset, np.ndarray],
        metric=None,
        *,
        engine: str = "auto",
        cache_radii: int = 8,
        adjacency_cache: Optional[AdjacencyCache] = None,
        **engine_options,
    ):
        self.points, self.metric = resolve_data(data, metric)
        self.spec = EngineSpec(name=engine, options=engine_options).validate()
        entry, accelerate, options = self.spec.resolve(
            n=int(self.points.shape[0]), metric=self.metric
        )
        self.index = entry.create(self.points, self.metric, accelerate, options)
        self.engine = entry.name
        if adjacency_cache is None:
            adjacency_cache = AdjacencyCache(max_entries=cache_radii)
        self.index.set_adjacency_cache(adjacency_cache)
        self.last_result: Optional[DiscResult] = None

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def execute(self, request: Union[SelectRequest, dict]) -> DiscResult:
        """Run a :class:`~repro.requests.SelectRequest` on this session.

        The session's index is the substrate, so the request's engine
        spec must be satisfiable by it: the name must be ``"auto"`` or
        the session's resolved engine, the ``accelerate`` gate must be
        ``"auto"`` or the session's own, and any engine options must
        match the session's — a session cannot silently honour a
        request configured for a different substrate.  Method options
        gain the session default ``track_closest_black=True`` (zooming
        needs the closest-black distances of Section 5.2) unless the
        request sets it.
        """
        request = SelectRequest.coerce(request).validate()
        spec = request.engine  # already a validated EngineSpec
        mismatches = []
        if spec.name not in ("auto", self.engine):
            mismatches.append(f"engine {spec.name!r} (session: {self.engine!r})")
        if spec.accelerate != "auto" and spec.accelerate != self.spec.accelerate:
            mismatches.append(
                f"accelerate={spec.accelerate!r} "
                f"(session: {self.spec.accelerate!r})"
            )
        if spec.options and dict(spec.options) != dict(self.spec.options):
            mismatches.append(
                f"options {dict(spec.options)!r} "
                f"(session: {dict(self.spec.options)!r})"
            )
        if mismatches:
            raise ValueError(
                "request is not satisfiable by this session — "
                + "; ".join(mismatches)
                + "; use execute_request() for one-shot cross-engine requests"
            )
        request = request.with_options(track_closest_black=True)
        algorithm = METHODS[request.method]
        self.last_result = algorithm(
            self.index, request.radius, **dict(request.method_options)
        )
        return self.last_result

    def select(self, radius: float, *, method: str = "greedy", **options) -> DiscResult:
        """Compute a fresh DisC diverse subset at ``radius``."""
        return self.execute(
            SelectRequest(radius=radius, method=method, method_options=options)
        )

    def select_many(
        self, radii: Sequence[float], *, method: str = "greedy", **options
    ) -> List[DiscResult]:
        """Batch selection over the shared index, one result per radius.

        Repeated radii hit the session's adjacency cache, so a zoom
        sequence like ``[r, r/2, r, r/2]`` builds each adjacency once.
        ``last_result`` ends at the final radius, matching a sequence
        of :meth:`select` calls.
        """
        return [self.select(r, method=method, **options) for r in radii]

    # ------------------------------------------------------------------
    # Zooming
    # ------------------------------------------------------------------
    def _require_last(self) -> DiscResult:
        if self.last_result is None:
            raise RuntimeError("call select() before zooming")
        return self.last_result

    def zoom_in(self, new_radius: float, *, greedy: bool = True) -> DiscResult:
        """Adapt the current solution to a smaller radius (more results)."""
        self.last_result = zoom_in(
            self.index, self._require_last(), new_radius, greedy=greedy
        )
        return self.last_result

    def zoom_out(self, new_radius: float, *, variant: Optional[str] = "a") -> DiscResult:
        """Adapt the current solution to a larger radius (fewer results)."""
        self.last_result = zoom_out(
            self.index, self._require_last(), new_radius, greedy_variant=variant
        )
        return self.last_result

    def local_zoom(self, center_id: int, new_radius: float, *, greedy: bool = True) -> DiscResult:
        """Re-diversify only the area around one selected object."""
        self.last_result = local_zoom(
            self.index, self._require_last(), center_id, new_radius, greedy=greedy
        )
        return self.last_result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Hit/miss/eviction counters of the adjacency LRU."""
        return self.index.adjacency_cache.info()

    def verify(self, result: Optional[DiscResult] = None):
        """Check Definition 1 on a result (defaults to the last one)."""
        result = result or self._require_last()
        return verify_disc(self.points, self.metric, result.selected, result.radius)

    def compare_methods(self, radius: float, *, seed: int = 0) -> dict:
        """Run DisC + the Section 4 baselines at matched k (Figure 6).

        DisC determines the subset size; MaxMin, MaxSum and k-medoids
        are then run with that k so their quality metrics are
        comparable.  The DisC solution goes through the session path
        (:meth:`select`, with its ``track_closest_black`` default), and
        an existing ``last_result`` holding a (grey) Greedy-DisC
        solution at this radius is reused instead of recomputed.  The
        comparison is read-only with respect to the zoom state:
        ``last_result`` is unchanged afterwards, so a follow-up zoom
        still adapts the view the user was looking at.
        """
        radius = validate_radius(radius)
        previous = self.last_result
        if (
            previous is not None
            and previous.radius == radius
            # Only the grey update family selects the same subset as
            # the reference Greedy-DisC (lazy/pruned variants are
            # selection-identical by construction; the white variant
            # is a different algorithm and must not stand in for it).
            and "Grey-Greedy-DisC" in previous.algorithm
        ):
            disc = previous
        else:
            disc = self.select(radius)
            self.last_result = previous
        k = max(disc.size, 1)
        rows = {
            "DisC": disc.selected,
            "r-C": greedy_c(self.index, radius).selected,
            "MaxMin": maxmin_select(self.points, self.metric, k),
            "MaxSum": maxsum_select(self.points, self.metric, k),
            "k-medoids": kmedoids_select(self.points, self.metric, k, seed=seed),
        }
        return {
            name: solution_summary(self.points, self.metric, selected, radius)
            for name, selected in rows.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(n={self.points.shape[0]}, "
            f"engine={self.engine!r}, metric={self.metric.name})"
        )

