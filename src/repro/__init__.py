"""repro — reproduction of "DisC Diversity: Result Diversification based
on Dissimilarity and Coverage" (Drosou & Pitoura, VLDB 2013).

Public surface:

* :func:`disc_select` / :func:`execute_request` / :class:`DiscSession` —
  the typed request pipeline (``SelectRequest`` in, ``DiscResult`` out).
* :mod:`repro.requests` — ``SelectRequest`` / ``EngineSpec`` request
  objects with JSON round-trip.
* :mod:`repro.engines` — engine capability registry + adjacency LRU.
* :mod:`repro.service` — the async multi-user serving layer (``repro
  serve``): shared dataset registry, process-wide cross-session
  adjacency cache, request coalescing.
* :mod:`repro.core` — the DisC heuristics, zooming, verification, bounds.
* :mod:`repro.mtree` — the M-tree substrate with node-access accounting.
* :mod:`repro.index` — brute-force / grid / KD-tree neighbor indexes.
* :mod:`repro.baselines` — MaxMin, MaxSum, k-medoids and quality metrics.
* :mod:`repro.datasets` — the paper's evaluation datasets.
* :mod:`repro.graph` — G_{P,r} graphs and exact small-instance solvers.
"""

from repro.api import (
    DiscSession,
    build_index,
    disc_select,
    execute_request,
)
from repro.requests import EngineSpec, SelectRequest
from repro.core import (
    DiscResult,
    basic_disc,
    fast_c,
    greedy_c,
    greedy_disc,
    local_zoom,
    verify_disc,
    zoom_in,
    zoom_out,
)
from repro.datasets import (
    Dataset,
    cameras_dataset,
    cities_dataset,
    clustered_dataset,
    uniform_dataset,
)
from repro.distance import get_metric
from repro.index import BruteForceIndex, GridIndex, NeighborIndex
from repro.mtree import MTree, MTreeIndex

__version__ = "1.0.0"

__all__ = [
    "DiscSession",
    "SelectRequest",
    "EngineSpec",
    "build_index",
    "disc_select",
    "execute_request",
    "basic_disc",
    "greedy_disc",
    "greedy_c",
    "fast_c",
    "zoom_in",
    "zoom_out",
    "local_zoom",
    "verify_disc",
    "DiscResult",
    "Dataset",
    "uniform_dataset",
    "clustered_dataset",
    "cities_dataset",
    "cameras_dataset",
    "get_metric",
    "NeighborIndex",
    "BruteForceIndex",
    "GridIndex",
    "MTree",
    "MTreeIndex",
    "__version__",
]
