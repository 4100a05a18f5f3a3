"""Cross-process shared-memory segments for adjacency and coordinates.

One adjacency build should serve every worker process.  The CSR and
blocked engines are already flat arrays (``indptr``/``indices`` plus
the block side arrays), so the natural cross-process form is a
:mod:`multiprocessing.shared_memory` segment holding the raw array
bytes — workers attach zero-copy NumPy views instead of rebuilding.

The hard part is the *lifecycle*, not the bytes.  This module owns it:

Ownership protocol (``builds == unique radii`` cluster-wide)
    Every logical key (an adjacency, a dataset's coordinates) maps to a
    deterministic segment name.  Exactly one process may create the
    small *meta* segment for a key — ``SharedMemory(create=True)`` is
    exclusive, so the kernel arbitrates the claim.  The claimer builds
    and publishes; everyone else attaches, or waits while the meta
    segment says "building".  A claimer that dies mid-build (even
    ``kill -9``) is detected by a pid liveness probe on the recorded
    owner, and the claim is *taken over*: the stale segments are
    unlinked and the next process re-claims.  A meta segment its
    claimer has not stamped yet (size 0 before ``ftruncate``, or a
    zero magic before the header write) also reads as "building"; it
    is taken over only once it has stayed unstamped for
    :data:`_UNSTAMPED_GRACE_S`.

Checksum stamps (a torn segment is rebuilt, never served)
    The payload bytes are stamped with a CRC32 at publish time and the
    meta segment's status byte flips to READY only after the stamp is
    written.  Attach verifies the CRC before handing out views; any
    mismatch (torn write, external corruption) unlinks the segments
    and reports a miss so the caller rebuilds.

Orphan sweep (``kill -9`` cannot leak ``/dev/shm``)
    Segments are namespaced by a per-cluster *run id* whose *lease*
    segment records the supervisor pid.  :func:`sweep_orphans` scans
    ``/dev/shm`` for this module's prefix and unlinks every run whose
    lease owner is dead (or whose lease is missing); the supervisor
    runs it at startup and again at shutdown, and the chaos suite
    asserts the post-teardown sweep finds nothing.

Refcounting
    Attached segments must outlive every NumPy view handed out, so the
    :class:`SharedSegmentStore` keeps one refcounted handle per
    segment and closes it when the count drops to zero (or at
    :meth:`~SharedSegmentStore.close`).  On Python < 3.13 the
    ``resource_tracker`` would unlink attached segments when *any*
    process exits; every handle is unregistered from it immediately —
    lifecycle belongs to this module's sweep, not to the tracker.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cancellation import OperationCancelled
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import counts_by

__all__ = [
    "SegmentClaim",
    "SharedSegmentStore",
    "decode_adjacency",
    "encode_adjacency",
    "list_run_segments",
    "new_run_id",
    "shm_available",
    "sweep_orphans",
    "sweep_run",
]

#: Segment-name prefix for everything this module creates.  Kept short:
#: POSIX shm names are limited (NAME_MAX minus the implementation's own
#: slash) and the name carries a run id plus a key digest.
_PREFIX = "dsc-"

#: Fixed size of a meta (claim) segment: header + JSON descriptor.  A
#: descriptor is a handful of array names/dtypes/shapes — a few hundred
#: bytes; 8 KiB leaves room without wasting pages.
_META_SIZE = 8192

_MAGIC = b"DISCSHM1"
# Header: magic(8s) status(B) owner_pid(Q) created(d) crc32(I) desc_len(I)
_HEADER = struct.Struct("<8sBQdII")

_STATUS_BUILDING = 0
_STATUS_READY = 1
_STATUS_FAILED = 2

#: Seconds a meta segment may stay unstamped (its claimer between
#: ``shm_open`` and the header write) before it counts as abandoned.
_UNSTAMPED_GRACE_S = 2.0

#: Registry family of the store's segment events; its ``event`` label
#: values are the :meth:`SharedSegmentStore.counters` keys.
SEGMENT_EVENTS = "repro_shm_segment_events_total"
_EVENTS = ("attaches", "publishes", "takeovers", "checksum_failures", "wait_timeouts")

#: Payload arrays are laid out on cache-line boundaries.
_ALIGN = 64


def shm_available() -> bool:
    """Whether POSIX shared memory (and the sweep's ``/dev/shm``) exists."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib always has it
        return False
    return os.path.isdir("/dev/shm")


def new_run_id() -> str:
    """A short random id namespacing one cluster's segments."""
    return os.urandom(4).hex()


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def _untrack(shm) -> None:
    """Detach a segment from the resource tracker (we own its lifecycle).

    Python < 3.13 registers both created and attached segments with the
    ``resource_tracker``, which unlinks them when the registering
    process exits — exactly wrong for segments meant to outlive their
    builder.  Unregistering is the documented workaround; guarded so a
    tracker-less interpreter (or a future API change) degrades to the
    tracker's behavior instead of crashing.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover  # repro-lint: disable=swallowed-cancellation -- tracker unregister cannot checkpoint; failure degrades to tracker-managed lifecycle
        pass


def _open_segment(name: str, *, create: bool = False, size: int = 0, untrack: bool = True):
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name, create=create, size=size)
    if untrack:
        _untrack(shm)
    return shm


def _unlink_quiet(name: str) -> bool:
    """Unlink a segment by name; True when this call removed it.

    Unlinks by name without mapping the segment, so a segment its
    creator never sized (size 0) is removed too, and the resource
    tracker never sees a handle.
    """
    import _posixshmem

    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:  # gone already, or lost the race
        return False
    return True


def _key_digest(key: str) -> str:
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


def _run_prefix(run_id: str) -> str:
    return f"{_PREFIX}{run_id}-"


def list_run_segments(run_id: str) -> List[str]:
    """Names of this run's live segments (empty off-Linux)."""
    if not os.path.isdir("/dev/shm"):
        return []
    prefix = _run_prefix(run_id)
    return sorted(
        name for name in os.listdir("/dev/shm") if name.startswith(prefix)
    )


def sweep_run(run_id: str) -> List[str]:
    """Unlink every segment of one run unconditionally; returns names."""
    removed = []
    for name in list_run_segments(run_id):
        if _unlink_quiet(name):
            removed.append(name)
    return removed


def sweep_orphans(active_run_ids: Tuple[str, ...] = ()) -> List[str]:
    """Unlink all segments of runs whose lease owner is dead.

    A run's lease segment (``dsc-<run>-lease``) records the supervising
    pid; a missing lease or a dead owner marks the whole run orphaned
    (its creator was killed before its own shutdown sweep).  Runs in
    ``active_run_ids`` are never touched, nor are runs with a live
    owner — concurrent clusters on one machine stay isolated.
    """
    if not os.path.isdir("/dev/shm"):
        return []
    runs: Dict[str, List[str]] = {}
    for name in os.listdir("/dev/shm"):
        if not name.startswith(_PREFIX):
            continue
        rest = name[len(_PREFIX):]
        run_id, _, _ = rest.partition("-")
        if run_id:
            runs.setdefault(run_id, []).append(name)
    removed: List[str] = []
    for run_id, names in sorted(runs.items()):
        if run_id in active_run_ids:
            continue
        lease_pid = _read_lease_pid(run_id)
        if lease_pid is not None and _pid_alive(lease_pid):
            continue
        for name in sorted(names):
            if _unlink_quiet(name):
                removed.append(name)
    return removed


def _lease_name(run_id: str) -> str:
    return f"{_PREFIX}{run_id}-lease"


def _read_lease_pid(run_id: str) -> Optional[int]:
    try:
        shm = _open_segment(_lease_name(run_id))
    except FileNotFoundError:
        return None
    try:
        (pid,) = struct.unpack_from("<Q", shm.buf, 0)
        return int(pid)
    except struct.error:  # pragma: no cover - truncated lease
        return None
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Payload encode/decode (adjacency values <-> named flat arrays)
# ----------------------------------------------------------------------
def encode_adjacency(value) -> Optional[Tuple[str, Dict[str, np.ndarray]]]:
    """``(kind, arrays)`` for a shareable adjacency, or None.

    Unknown value types are simply not shared (each process builds its
    own copy) — never an error, the cache must not care.
    """
    from repro.graph.blocked import BlockedNeighborhood
    from repro.graph.csr import CSRNeighborhood

    if isinstance(value, CSRNeighborhood):
        return "csr", value.to_shared_arrays()
    if isinstance(value, BlockedNeighborhood):
        return "blocked", value.to_shared_arrays()
    return None


def decode_adjacency(kind: str, arrays: Dict[str, np.ndarray]):
    """Reconstruct an adjacency from attached shared arrays (zero-copy)."""
    from repro.graph.blocked import BlockedNeighborhood
    from repro.graph.csr import CSRNeighborhood

    if kind == "csr":
        return CSRNeighborhood.from_shared_arrays(arrays)
    if kind == "blocked":
        return BlockedNeighborhood.from_shared_arrays(arrays)
    raise ValueError(f"unknown shared-adjacency kind {kind!r}")


def _plan_layout(arrays: Dict[str, np.ndarray]) -> Tuple[List[dict], int]:
    descriptors = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        descriptors.append(
            {
                "name": str(name),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    return descriptors, max(offset, 1)


class SegmentClaim:
    """Exclusive build ownership of one key (holds the meta segment)."""

    def __init__(self, store: "SharedSegmentStore", key: str, meta_shm) -> None:
        self._store = store
        self.key = key
        self._meta = meta_shm
        self._done = False

    @property
    def data_name(self) -> str:
        """The data segment name this claim will publish to."""
        return self._store._data_name(self.key)

    def publish(
        self,
        kind: str,
        arrays: Dict[str, np.ndarray],
        meta: Optional[dict] = None,
    ) -> bool:
        """Copy the arrays into a data segment and flip READY.

        Returns False (and releases the claim) when the descriptor
        cannot fit the meta segment — the value is served locally only.
        """
        if self._done:
            raise RuntimeError("claim already published or abandoned")
        arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
        layout, total = _plan_layout(arrays)
        descriptor = {
            "kind": str(kind),
            "data": self._store._data_name(self.key),
            "size": int(total),
            "arrays": layout,
            "meta": dict(meta or {}),
        }
        desc_bytes = json.dumps(descriptor, sort_keys=True).encode("utf-8")
        if _HEADER.size + len(desc_bytes) > _META_SIZE:
            self.abandon()
            return False
        try:
            data = _open_segment(descriptor["data"], create=True, size=total)
        except FileExistsError:
            # Leftover from a taken-over builder: replace its bytes.
            _unlink_quiet(descriptor["data"])
            try:
                data = _open_segment(descriptor["data"], create=True, size=total)
            except FileExistsError:  # pragma: no cover - double takeover
                self.abandon()
                return False
        try:
            for spec, array in zip(descriptor["arrays"], arrays.values()):
                start = spec["offset"]
                data.buf[start : start + array.nbytes] = array.tobytes()
            crc = zlib.crc32(bytes(data.buf[:total])) & 0xFFFFFFFF
            _HEADER.pack_into(
                self._meta.buf,
                0,
                _MAGIC,
                _STATUS_BUILDING,
                os.getpid(),
                time.time(),
                crc,
                len(desc_bytes),
            )
            self._meta.buf[_HEADER.size : _HEADER.size + len(desc_bytes)] = desc_bytes
            # READY last: an attacher either sees BUILDING (and waits)
            # or a fully-written descriptor + checksum.
            self._meta.buf[8] = _STATUS_READY
        finally:
            self._store._hold(descriptor["data"], data)
        self._store._release_meta(self)
        self._done = True
        return True

    def abandon(self) -> None:
        """Give up the claim: unlink the meta so others may re-claim."""
        if self._done:
            return
        self._done = True
        name = self._meta.name
        try:
            self._meta.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        _unlink_quiet(name)
        self._store._forget_claim(self)


class SharedSegmentStore:
    """Refcounted registry of one run's shared segments.

    One instance per process per run.  ``hold_lease=True`` (the
    supervisor) creates the run's lease segment recording this pid —
    the liveness anchor the orphan sweep checks.  Workers attach with
    the same ``run_id`` and no lease.
    """

    def __init__(self, run_id: Optional[str] = None, *, hold_lease: bool = False) -> None:
        self.run_id = run_id or new_run_id()
        self._lock = threading.Lock()
        #: name -> [shm, refcount]
        self._held: Dict[str, list] = {}
        self._claims: Dict[str, SegmentClaim] = {}
        #: key -> (first, last) monotonic times its meta segment was
        #: seen unstamped
        self._unstamped: Dict[str, Tuple[float, float]] = {}
        self._lease = None
        self.metrics = obs_metrics.MetricsRegistry()
        self._m_events = self.metrics.counter(
            SEGMENT_EVENTS, "Shared-memory segment events, by kind.", ("event",)
        )
        if hold_lease:
            self._lease = _open_segment(
                _lease_name(self.run_id), create=True, size=64
            )
            struct.pack_into("<Q", self._lease.buf, 0, os.getpid())

    # ------------------------------------------------------------------
    def _meta_name(self, key: str) -> str:
        return f"{_run_prefix(self.run_id)}{_key_digest(key)}m"

    def _data_name(self, key: str) -> str:
        return f"{_run_prefix(self.run_id)}{_key_digest(key)}d"

    def _hold(self, name: str, shm):
        """Register one reference to ``name``; returns the canonical handle.

        When the segment is already held (e.g. this process published it
        and now attaches it), the duplicate handle is closed and the
        held one returned — callers MUST build views from the returned
        handle's buffer, never from the one they passed in, or a later
        close of the duplicate would unmap memory live views point at.
        """
        with self._lock:
            entry = self._held.get(name)
            if entry is None:
                self._held[name] = [shm, 1]
                return shm
            entry[1] += 1
            canonical = entry[0]
        if canonical is not shm:
            shm.close()
        return canonical

    def _release_meta(self, claim: SegmentClaim) -> None:
        try:
            claim._meta.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        self._forget_claim(claim)

    def _forget_claim(self, claim: SegmentClaim) -> None:
        with self._lock:
            if self._claims.get(claim.key) is claim:
                del self._claims[claim.key]

    def detach(self, name: str) -> None:
        """Drop one reference to an attached segment (close at zero)."""
        with self._lock:
            entry = self._held.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._held[name]
            shm = entry[0]
        try:
            shm.close()
        except BufferError:  # a NumPy view still points in; keep mapped
            with self._lock:
                self._held[name] = [shm, 1]

    # ------------------------------------------------------------------
    def acquire(self, key: str, *, wait_s: float = 60.0):
        """``("value", payload)`` | ``("claim", SegmentClaim)`` | ``("miss", None)``.

        The single entry point: attach the key's segments if published,
        claim the build if nobody has, wait (with dead-owner takeover)
        if someone is building.  ``("miss", None)`` means the wait
        timed out or shm is unusable — the caller computes locally and
        does not publish.

        ``payload`` is ``{"kind", "arrays", "meta"}`` with the arrays
        read-only NumPy views into the shared segment (held alive by
        this store).
        """
        from repro.cancellation import current_token

        deadline = time.monotonic() + wait_s
        first = True
        while True:
            if not first and time.monotonic() >= deadline:
                self._m_events.inc(event="wait_timeouts")
                return "miss", None
            first = False
            token = current_token()
            if token is not None:
                token.checkpoint()
            outcome, payload = self._try_attach(key)
            if outcome == "value":
                return "value", payload
            if outcome == "absent":
                claimed = self._try_claim(key)
                if claimed is not None:
                    return "claim", claimed
                continue  # raced another claimer; re-attach
            # outcome == "building": poll for READY / owner death.
            time.sleep(0.005)

    def _try_claim(self, key: str) -> Optional[SegmentClaim]:
        name = self._meta_name(key)
        try:
            meta = _open_segment(name, create=True, size=_META_SIZE)
        except FileExistsError:
            return None
        except OSError:  # pragma: no cover - /dev/shm unusable
            return None
        # Magic last: an attacher sees a zero magic (unstamped, still
        # building) or a complete header, never a torn one.
        _HEADER.pack_into(
            meta.buf, 0, bytes(8), _STATUS_BUILDING, os.getpid(), time.time(), 0, 0
        )
        meta.buf[: len(_MAGIC)] = _MAGIC
        claim = SegmentClaim(self, key, meta)
        with self._lock:
            self._claims[key] = claim
        return claim

    def _try_attach(self, key: str):
        """``("value", payload)`` | ``("building", None)`` | ``("absent", None)``."""
        name = self._meta_name(key)
        try:
            meta = _open_segment(name)
        except FileNotFoundError:
            with self._lock:
                self._unstamped.pop(key, None)
            return "absent", None
        except ValueError:  # size 0: the claimer has not ftruncated yet
            return self._unstamped_claim(key)
        try:
            header = _HEADER.unpack_from(meta.buf, 0)
        except struct.error:
            header = None
        if header is None or header[0] != _MAGIC:
            meta.close()
            if header is not None and not any(header[0]):
                return self._unstamped_claim(key)
            self._takeover(key)
            return "absent", None
        with self._lock:
            self._unstamped.pop(key, None)
        _, status, owner_pid, _, crc, desc_len = header
        if status == _STATUS_BUILDING:
            meta.close()
            if not _pid_alive(int(owner_pid)):
                self._takeover(key)
                return "absent", None
            return "building", None
        if status != _STATUS_READY:
            meta.close()
            self._takeover(key)
            return "absent", None
        try:
            raw = bytes(meta.buf[_HEADER.size : _HEADER.size + desc_len])
            descriptor = json.loads(raw.decode("utf-8"))
        except (ValueError, IndexError):
            descriptor = None
        finally:
            # The descriptor is copied out; the meta mapping can go.
            try:
                meta.close()
            except BufferError:  # pragma: no cover - defensive
                pass
        if descriptor is None:
            self._takeover(key)
            return "absent", None
        payload = self._attach_data(key, descriptor, crc)
        if payload is None:
            return "absent", None
        return "value", payload

    def _unstamped_claim(self, key: str):
        """``("building", None)`` for a meta segment its claimer has not
        stamped yet — or, once this store has watched it stay unstamped
        for :data:`_UNSTAMPED_GRACE_S` (the claimer died in that gap), a
        takeover and ``("absent", None)``."""
        now = time.monotonic()
        with self._lock:
            first, last = self._unstamped.get(key, (now, now))
            if now - last > _UNSTAMPED_GRACE_S:
                first = now  # not watched since: maybe another claimer
            if now - first < _UNSTAMPED_GRACE_S:
                self._unstamped[key] = (first, now)
                return "building", None
            del self._unstamped[key]
        self._takeover(key)
        return "absent", None

    def _attach_data(self, key: str, descriptor: dict, crc: int):
        try:
            data = _open_segment(descriptor["data"])
        except FileNotFoundError:
            self._takeover(key)
            return None
        # Hold BEFORE building views so they reference the canonical
        # (refcounted) mapping, not a duplicate handle.
        data = self._hold(descriptor["data"], data)
        size = int(descriptor["size"])
        if len(data.buf) < size or (
            zlib.crc32(bytes(data.buf[:size])) & 0xFFFFFFFF
        ) != crc:
            self.detach(descriptor["data"])
            self._m_events.inc(event="checksum_failures")
            self._takeover(key)
            return None
        arrays = {}
        for spec in descriptor["arrays"]:
            view = np.ndarray(
                tuple(spec["shape"]),
                dtype=np.dtype(spec["dtype"]),
                buffer=data.buf,
                offset=int(spec["offset"]),
            )
            view.setflags(write=False)
            arrays[spec["name"]] = view
        self._m_events.inc(event="attaches")
        return {
            "kind": descriptor.get("kind"),
            "arrays": arrays,
            "meta": descriptor.get("meta", {}),
        }

    def _takeover(self, key: str) -> None:
        """Remove a stale/corrupt claim so the next acquire re-claims."""
        self._m_events.inc(event="takeovers")
        _unlink_quiet(self._data_name(key))
        _unlink_quiet(self._meta_name(key))

    # ------------------------------------------------------------------
    def publish(self, claim: SegmentClaim, kind: str, arrays, meta=None) -> bool:
        ok = claim.publish(kind, arrays, meta)
        if ok:
            self._m_events.inc(event="publishes")
        return ok

    def segment_names(self) -> List[str]:
        return list_run_segments(self.run_id)

    def counters(self) -> dict:
        """The store's counters: a view over one :attr:`metrics`
        snapshot plus the held-segment count."""
        events = counts_by(self.metrics.snapshot(), SEGMENT_EVENTS, "event")
        with self._lock:
            held = len(self._held)
        return {
            "run_id": self.run_id,
            "held_segments": held,
            **{event: events.get(event, 0) for event in _EVENTS},
        }

    def close(self, *, sweep: bool = False) -> List[str]:
        """Release every held mapping; optionally unlink the whole run.

        ``sweep=True`` is the clean-shutdown path (supervisor): unlink
        all of the run's segments so nothing survives in ``/dev/shm``.
        Returns the names unlinked.
        """
        with self._lock:
            claims = list(self._claims.values())
            held = list(self._held.values())
            self._claims.clear()
            self._held.clear()
        for claim in claims:
            claim.abandon()
        for shm, _count in held:
            try:
                shm.close()
            except BufferError:  # views outlive the store; mapping leaks
                pass  # until process exit, but the *name* is still swept
        removed: List[str] = []
        if self._lease is not None:
            try:
                self._lease.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            if not sweep:
                _unlink_quiet(_lease_name(self.run_id))
            self._lease = None
        if sweep:
            removed = sweep_run(self.run_id)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SharedSegmentStore(run_id={self.run_id!r}, held={len(self._held)})"


class ShmCacheBacking:
    """Adapts a :class:`SharedSegmentStore` to the shared cache's backing
    protocol (``load_or_claim`` / ``publish`` / ``abandon`` / ``info``).

    Keys are the cache's ``(dataset_id, metric, radius_bucket)`` tuples;
    values are CSR/blocked adjacencies.  A load counts as ``shm_hits``
    on the cache side, never as a build — which is what keeps
    ``builds == unique radii`` true across the whole cluster: the shm
    claim protocol grants each key exactly one builder.
    """

    def __init__(self, store: SharedSegmentStore, *, wait_s: float = 60.0) -> None:
        self.store = store
        self.wait_s = wait_s

    @property
    def metrics(self):
        """The store's registry, merged into the serving ``/metrics``."""
        return self.store.metrics

    @staticmethod
    def _key_str(key) -> str:
        dataset, metric, bucket = key
        return f"adj:{dataset}:{metric}@{bucket!r}"

    def load_or_claim(self, key):
        """``("value", adjacency)`` | ``("claim", token)`` | ``("miss", None)``."""
        status, got = self.store.acquire(self._key_str(key), wait_s=self.wait_s)
        if status == "value":
            try:
                return "value", decode_adjacency(got["kind"], got["arrays"])
            except OperationCancelled:
                # The segment is intact — the *request* ran out of
                # budget.  Unlinking it here would destroy a good
                # cluster-wide build over one caller's deadline.
                raise
            except Exception:
                # Undecodable payload (e.g. version skew): rebuild
                # locally; the segment is replaced on our publish.
                self.store._takeover(self._key_str(key))
                status, got = "miss", None
        if status == "claim":
            return "claim", got
        return "miss", None

    def publish(self, claim, value) -> bool:
        encoded = encode_adjacency(value)
        if encoded is None:
            claim.abandon()
            return False
        kind, arrays = encoded
        return self.store.publish(claim, kind, arrays)

    def abandon(self, claim) -> None:
        claim.abandon()

    def drop(self, key) -> None:
        """Unlink the segments of one cache key (idempotent).

        The live-dataset migration path: a mutated dataset's old
        version-stamped keys are unreachable (every new request carries
        the new ``name@v`` id), so their segments are garbage the run
        sweep would only collect at shutdown — drop them eagerly.  Any
        worker may call this; a concurrent reader that already attached
        keeps its mapping (the unlink removes the *name*), and a racing
        attach simply misses and rebuilds under the new key.
        """
        self.store._takeover(self._key_str(key))

    def info(self) -> dict:
        return self.store.counters()


__all__.append("ShmCacheBacking")
