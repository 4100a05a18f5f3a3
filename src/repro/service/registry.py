"""Named-dataset registry: load once per process, hand out immutable handles.

A serving process hosts a handful of datasets queried by many users.
Loading (file parsing, synthetic generation) must happen once, the
loaded arrays must be safe to share across request threads, and the
``/datasets`` endpoint needs a catalogue it can describe without
forcing loads.  :class:`DatasetRegistry` provides exactly that:

* **specs** — a name bound to a zero-argument loader (built-in
  generators via :meth:`register_builtin`, arbitrary callables via
  :meth:`register_spec`), loaded lazily on first :meth:`get`;
* **arrays** — user-uploaded points registered directly with
  :meth:`register_array`;
* **handles** — every load returns the same :class:`DatasetHandle`
  (identity-stable, so ``handle.dataset_id`` can key the shared
  adjacency cache), with the point matrix marked read-only so no
  request can mutate data other sessions compute on.

Loads single-flight per name (:class:`~repro.service.flight.
SingleFlight`): two first-requests for the same dataset coalesce into
one load, while loads of *different* datasets proceed in parallel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cancellation import current_token
from repro.datasets import (
    Dataset,
    cameras_dataset,
    cities_dataset,
    clustered_dataset,
    uniform_dataset,
)
from repro.distance import get_metric
from repro.service.flight import SingleFlight

__all__ = ["DatasetHandle", "DatasetRegistry", "BUILTIN_DATASETS"]

#: Built-in generator families: name -> (loader(n, seed), default n).
#: The defaults match the CLI so ``repro serve`` and ``repro select``
#: agree on what plain "cities" means.
BUILTIN_DATASETS: Dict[str, tuple] = {
    "uniform": (lambda n, seed: uniform_dataset(n=n, seed=seed), 2500),
    "clustered": (lambda n, seed: clustered_dataset(n=n, seed=seed), 2500),
    "cities": (lambda n, seed: cities_dataset(n=n, seed=seed), 2000),
    "cameras": (lambda n, seed: cameras_dataset(n=n, seed=seed), 579),
}


@dataclass(frozen=True)
class DatasetHandle:
    """An immutable reference to one loaded dataset.

    ``dataset_id`` is the registry name — unique within the process and
    stable across requests, which is what the shared adjacency cache
    keys on.  ``dataset.points`` is marked read-only at load time.
    """

    dataset_id: str
    dataset: Dataset
    spec: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def metric(self):
        return self.dataset.metric


class DatasetRegistry:
    """Name -> dataset catalogue with load-once semantics.

    Datasets are immutable by default.  A dataset *promoted to live*
    (:meth:`register_live` / :meth:`promote_live`) is instead backed by
    a :class:`~repro.live.dataset.MutableDataset`: :meth:`get` returns
    the current version's frozen snapshot handle (``dataset_id`` =
    ``name@v<version>``), and :meth:`get_live` exposes the mutable
    overlay to the ``/mutate`` path.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, dict] = {}
        self._handles: Dict[str, DatasetHandle] = {}
        self._live: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._loads = SingleFlight()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_spec(
        self, name: str, loader: Callable[[], Dataset], **describe
    ) -> None:
        """Register a lazily-loaded dataset under ``name``.

        ``loader`` takes no arguments and returns a
        :class:`~repro.datasets.base.Dataset`; ``describe`` keywords
        appear in the catalogue before the dataset is loaded.
        """
        with self._lock:
            if name in self._specs:
                raise ValueError(f"dataset {name!r} is already registered")
            self._specs[name] = {"loader": loader, "describe": dict(describe)}

    def register_builtin(
        self, name: str, *, n: Optional[int] = None, seed: int = 42
    ) -> None:
        """Register one of the paper's generator families by name."""
        try:
            loader, default_n = BUILTIN_DATASETS[name]
        except KeyError:
            raise ValueError(
                f"unknown built-in dataset {name!r}; "
                f"choose from {sorted(BUILTIN_DATASETS)}"
            ) from None
        size = default_n if n is None else int(n)
        self.register_spec(
            name, lambda: loader(size, seed), family=name, n=size, seed=seed
        )

    def register_array(self, name: str, points, metric) -> DatasetHandle:
        """Register user-supplied points directly (loaded immediately)."""
        import numpy as np

        points = np.asarray(points)
        dataset = Dataset(name=name, points=points, metric=get_metric(metric))
        with self._lock:
            if name in self._specs or name in self._handles:
                raise ValueError(f"dataset {name!r} is already registered")
            handle = self._freeze(name, dataset, spec={"family": "array"})
            self._handles[name] = handle
        return handle

    def register_live(self, name: str, dataset: Dataset):
        """Register ``dataset`` as a *mutable* live dataset.

        Returns the backing :class:`~repro.live.dataset.MutableDataset`.
        """
        from repro.live.dataset import MutableDataset

        live = MutableDataset(name, dataset)
        with self._lock:
            if name in self._specs or name in self._handles or name in self._live:
                raise ValueError(f"dataset {name!r} is already registered")
            self._live[name] = live
        return live

    def promote_live(self, name: str):
        """Convert a registered (possibly lazy) dataset into a live one.

        The spec is loaded if needed; the loaded points seed version 0.
        Returns the :class:`~repro.live.dataset.MutableDataset`.
        """
        from repro.live.dataset import MutableDataset

        with self._lock:
            existing = self._live.get(name)
        if existing is not None:
            return existing
        handle = self.get(name)  # loads via the normal guarded path
        live = MutableDataset(name, handle.dataset)
        with self._lock:
            already = self._live.get(name)
            if already is not None:
                return already
            self._live[name] = live
            self._handles.pop(name, None)
            self._specs.pop(name, None)
        return live

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_live(self, name: str):
        """The :class:`MutableDataset` behind a live name (KeyError → 404
        for unknown names, ValueError → 400 for immutable ones)."""
        with self._lock:
            live = self._live.get(name)
            if live is not None:
                return live
            if name in self._specs or name in self._handles:
                raise ValueError(
                    f"dataset {name!r} is immutable; serve it with live "
                    "registration to accept mutations"
                )
        known = self.names()
        raise KeyError(f"unknown dataset {name!r}; registered: {known}")

    def is_live(self, name: str) -> bool:
        with self._lock:
            return name in self._live

    def live_names(self) -> List[str]:
        with self._lock:
            return sorted(self._live)

    def get(self, name: str) -> DatasetHandle:
        """The handle for ``name``, loading it on first request.

        For live datasets this is the *current version's* frozen
        snapshot handle.  Raises ``KeyError`` for unregistered names
        (the server maps this to a 404).
        """
        with self._lock:
            live = self._live.get(name)
        if live is not None:
            # Outside the registry lock: the snapshot serialises on the
            # live dataset's own lock (one lock at a time, no ordering).
            return live.snapshot_handle()
        with self._lock:
            handle = self._handles.get(name)
            if handle is not None:
                return handle
            spec = self._specs.get(name)
            if spec is None:
                known = sorted(set(self._specs) | set(self._handles))
                raise KeyError(f"unknown dataset {name!r}; registered: {known}")

        def load() -> DatasetHandle:
            # Re-checked by the leader: an earlier load may have
            # finished between the caller's lookup and its lead.
            with self._lock:
                handle = self._handles.get(name)
            if handle is not None:
                return handle
            dataset = spec["loader"]()
            if not isinstance(dataset, Dataset):
                raise TypeError(
                    f"loader for {name!r} returned {type(dataset).__name__}, "
                    "expected repro.datasets.Dataset"
                )
            handle = self._freeze(name, dataset, spec=dict(spec["describe"]))
            with self._lock:
                self._handles[name] = handle
            return handle

        return self._loads.run(name, load, current_token())

    @staticmethod
    def _freeze(name: str, dataset: Dataset, spec: dict) -> DatasetHandle:
        dataset.points.setflags(write=False)
        return DatasetHandle(dataset_id=name, dataset=dataset, spec=spec)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                set(self._specs) | set(self._handles) | set(self._live)
            )

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return (
                name in self._specs
                or name in self._handles
                or name in self._live
            )

    def __len__(self) -> int:
        return len(self.names())

    def describe(self) -> List[dict]:
        """The ``/datasets`` catalogue (loaded and not-yet-loaded)."""
        out = []
        for name in self.names():
            with self._lock:
                live = self._live.get(name)
                handle = self._handles.get(name)
                spec = self._specs.get(name)
            if live is not None:
                out.append(live.describe())
            elif handle is not None:
                out.append(
                    {
                        "id": name,
                        "loaded": True,
                        "n": handle.dataset.n,
                        "dim": handle.dataset.dim,
                        "metric": handle.dataset.metric.name,
                        "spec": handle.spec,
                    }
                )
            else:
                out.append(
                    {"id": name, "loaded": False, "spec": dict(spec["describe"])}
                )
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        loaded = sum(1 for n in self.names() if n in self._handles)
        return f"DatasetRegistry({len(self)} datasets, {loaded} loaded)"
