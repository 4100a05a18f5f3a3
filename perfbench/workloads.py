"""The two workloads: what each sends, times and checks.

Every workload times closed-loop operations (a client sends its next
request only after the previous answer) and returns a :class:`Pass`
with two timed kinds, ``select`` and ``change``.  ``perfbench/README.md`` has the table of what each kind is
on each workload, and the sizes.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import ROOT, BenchError, Client, Server

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api import disc_select  # noqa: E402
from repro.core.verify import verify_disc  # noqa: E402
from repro.datasets import clustered_dataset  # noqa: E402
from repro.experiments.perf import bench_radius  # noqa: E402

DATASET = "clustered"
SERVE_N = 5000
LIVE_N = 1000
#: Base radius of the server workloads and the grid cell size of the
#: service benchmark's engine payload (``results/BENCH_service.json``).
BASE = bench_radius(DATASET, SERVE_N)
ENGINE = {"name": "grid", "options": {"cell_size": BASE}}
#: Generator seed of every dataset (the seed the repository's other
#: benchmarks pin).  Clustered datasets drawn from different seeds differ
#: by up to 2x in edge count at one radius, which swamped run-to-run
#: comparisons; ``--seed`` instead draws the traffic: the radius scale
#: and the churn plan.
DATA_SEED = 42
#: Workers of the pooled server, and its clients: one per worker.
WORKERS = 2
#: The radii sessions start from (before the seed's scale): client ``c``
#: starts every session from ``SESSION_BASES[c]``, so two clients never
#: send the same request at once.
SESSION_BASES = (BASE, 0.8 * BASE)
#: Zoom ladder as multiples of the session's base.  A session takes
#: one rung (in, then out in the next session), so selects are half of
#: the traffic rather than a third and reach 100 samples in one window.
LADDER = (0.5, 1.5)
#: Points deleted and inserted by each /mutate batch (1% of n).
CHURN_BATCH = LIVE_N // 100
#: /mutate batches (each followed by one /select) per ``live_serial``
#: epoch, on a fresh server.
EPOCH_BATCHES = 100
#: Every read on ``live_serial`` is checked with ``verify_disc``; reads
#: of every ``PARITY_EVERY``-th version are also compared with
#: ``disc_select`` on that version's points.  A reference selection
#: costs about twice the read it checks, so checking every read made
#: the checks outlast the window.
PARITY_EVERY = 8
#: Largest relative change of every radius a seed draws.
RADIUS_JITTER = 0.01
#: Untimed closed-loop traffic before each window: the first seconds
#: after set-up ran about a fifth slower than the rest.
WARMUP_S = 2.0
#: Set-ups per run (at least); ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Pass:
    """The timed windows of one pass and what was observed around them."""

    records: List[dict]
    windows: List[Tuple[float, float]]
    setup_s: List[float]
    rss_mb: float
    stats: Optional[dict] = None
    spans: Optional[list] = None
    check_failures: List[str] = field(default_factory=list)
    solution_size: int = 0


def radius_scale(seed: int) -> float:
    """The factor ``seed`` applies to every radius of a run."""
    return 1.0 + np.random.default_rng(seed).uniform(-RADIUS_JITTER, RADIUS_JITTER)


def _record(kind: str, start: float, latency: float, status: int, **extra) -> dict:
    return {"kind": kind, "start": start, "latency_s": latency, "status": status, **extra}


def closed_loop(clients: List[Callable[[float, list], None]], seconds: float,
                warmup: float = WARMUP_S):
    """Run each client through a warm-up and the window; returns records and bounds.

    A client runs until the window closes or it stops on its own.
    Records of operations started during the warm-up are marked
    ``warm``: they are checked like the others but not timed.
    """
    barrier = threading.Barrier(len(clients) + 1)
    records: List[list] = [[] for _ in clients]
    errors: List[BaseException] = []
    bounds = {}

    def run(index: int) -> None:
        try:
            barrier.wait()
            clients[index](bounds["end"], records[index])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(clients))]
    for thread in threads:
        thread.start()
    bounds["start"] = time.perf_counter() + warmup
    bounds["end"] = bounds["start"] + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if errors:
        raise BenchError(f"client crashed: {errors[0]!r}")
    flat = [rec for client_records in records for rec in client_records]
    for rec in flat:
        rec["warm"] = rec["start"] < bounds["start"]
    return flat, bounds["start"], end


def _post(client: Client, kind: str, path: str, payload: dict, records: list):
    """Send one timed request; returns the parsed body on 200, else None."""
    start = time.perf_counter()
    try:
        status, data, latency, total = client.call("POST", path, payload)
    except (OSError, http.client.HTTPException) as exc:
        records.append(_record(kind, start, time.perf_counter() - start, 0, error=repr(exc)))
        return None
    body = json.loads(data) if status == 200 else None
    records.append(
        _record(
            kind, start, latency, status,
            server_s=total,
            elapsed_s=None if body is None else body.get("elapsed_s"),
            coalesced=bool(body and body.get("coalesced")),
            nbytes=len(data),
        )
    )
    if body is None:
        records[-1]["error"] = data[:200].decode(errors="replace")
    return body


def _held(result: dict, radius: float) -> dict:
    """The ``previous`` a client sends to zoom from ``result``."""
    return {
        "selected": result["selected"],
        "radius": radius,
        "closest_black": result["closest_black"],
        "closest_black_exact": bool(result["meta"].get("closest_black_exact")),
    }


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("dsc-")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# interactive_pool
# ----------------------------------------------------------------------
# The paper's zoom traffic against ``serve --workers 2``.  Time goes to
# core.greedy / core.zoom and to the service wire (a zoom body carries
# one closest-black distance per point); graph building does almost
# nothing because every ladder radius is warmed during set-up.  It is
# the only workload that exercises service.supervisor and service.shm
# (the front-to-worker hop and shared-memory attach).


def _session(client: Client, base: float, multiple: float, records: list) -> None:
    """``/select`` at ``base``, then ``/zoom`` from it to ``base * multiple``."""
    body = _post(
        client, "select", "/select",
        {"dataset": DATASET, "radius": base, "engine": ENGINE,
         "method_options": {"track_closest_black": True}},
        records,
    )
    if body is None:
        return
    records[-1]["check"] = ("select", base, body["result"]["selected"])
    to = base * multiple
    body = _post(
        client, "change", "/zoom",
        {"dataset": DATASET, "radius": base, "to": to, "engine": ENGINE,
         "previous": _held(body["result"], base)},
        records,
    )
    if body is not None:
        records[-1]["check"] = ("zoom", to, body["result"]["selected"])


def _interactive_client(server: Server, base: float):
    def run(t_end: float, records: list) -> None:
        client = Client(server.host, server.port)
        try:
            k = 0
            while time.perf_counter() < t_end:
                _session(client, base, LADDER[k % len(LADDER)], records)
                k += 1
        finally:
            client.close()

    return run


def _serve_args(n: int, extra: List[str]) -> List[str]:
    return ["--datasets", DATASET, "--n", str(n), "--seed", str(DATA_SEED),
            "--engine", "grid", *extra]


def _setups(start: Callable[[], Server], count: int):
    """Start the server ``count`` times; keep the last one running."""
    times = []
    server = None
    for i in range(count):
        t0 = time.perf_counter()
        server = start()
        times.append(time.perf_counter() - t0)
        if i < count - 1:
            server.stop()
    return server, times


def _interactive_references(data, bases) -> Dict[float, List[int]]:
    return {
        base: [int(i) for i in disc_select(
            data, base, engine="grid", engine_options=ENGINE["options"],
            track_closest_black=True,
        ).selected]
        for base in bases
    }


def _check_interactive(records, data, references) -> List[str]:
    failures = []
    verified: Dict[tuple, bool] = {}
    for rec in records:
        if "check" not in rec:
            continue
        kind, radius, selected = rec["check"]
        if kind == "select":
            if selected != references[radius]:
                failures.append(f"/select at r={radius} differs from disc_select")
                rec["status"] = -1
            continue
        key = (radius, tuple(selected))
        if key not in verified:
            report = verify_disc(data.points, data.metric, selected, radius)
            verified[key] = bool(report.is_disc_diverse)
        if not verified[key]:
            failures.append(f"/zoom to r={radius} is not DisC diverse")
            rec["status"] = -1
    return failures


def interactive_pool(seed: int, seconds: float, workdir: str, spans_out=None,
                     setups: int = SETUPS) -> Pass:
    data = clustered_dataset(n=SERVE_N, seed=DATA_SEED)
    bases = tuple(base * radius_scale(seed) for base in SESSION_BASES)
    references = _interactive_references(data, bases)
    shm_before = _shm_segments()

    def start() -> Server:
        server = Server(_serve_args(SERVE_N, ["--workers", str(WORKERS)]), workdir, spans_out)
        try:
            client = Client(server.host, server.port)
            warm: list = []
            # A zoom adapts on the target radius's adjacency only when
            # its worker already holds it, so every worker gets every
            # radius: the pool's front hands consecutive requests to idle
            # workers in turn.
            for base in bases:
                for multiple in (1.0, *LADDER):
                    for _ in range(WORKERS):
                        _post(client, "select", "/select",
                              {"dataset": DATASET, "radius": base * multiple,
                               "engine": ENGINE}, warm)
            for base in bases:
                for multiple in LADDER:
                    _session(client, base, multiple, warm)
            client.close()
            if any(rec["status"] != 200 for rec in warm):
                raise BenchError("warm-up request failed")
        except BaseException:
            server.stop()
            raise
        return server

    server, setup_times = _setups(start, setups)
    try:
        records, t0, t1 = closed_loop(
            [_interactive_client(server, base) for base in bases], seconds
        )
        probe = Client(server.host, server.port)
        stats = probe.get_json("/stats")
        probe.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    failures = _check_interactive(records, data, references)
    leaked = _shm_segments() - shm_before
    if leaked:
        failures.append(f"{len(leaked)} /dev/shm segments leaked after shutdown")
    return Pass(records, [(t0, t1)], setup_times, rss, stats=stats,
                check_failures=failures,
                solution_size=len(references[bases[0]]))


# ----------------------------------------------------------------------
# live_serial
# ----------------------------------------------------------------------
# Reads right after writes: one client sends a /mutate batch (1% of n
# deleted and as many inserted, with repair of its held selection) and
# then a /select at the base radius.  Every read lands on the version
# the batch just made and pays the LazyMigration snapshot, so this
# shows when a read-path gain costs writes (say, a result cache
# invalidated by every batch).  Reads never overlap writes: a /select
# that runs while a /mutate is applied answers wrong on this program,
# so read-beside-write contention is not measured here.
#
# A mutation costs more the more batches the dataset has taken (about
# 5 ms after a few, 100 ms after 1200), so a window of fixed length
# would measure a later history on a faster machine.  The window is
# cut into epochs instead: each starts a fresh server and sends
# EPOCH_BATCHES batches, and epochs follow until their timed seconds
# reach the run's.  Every epoch starts with a set-up, which is timed for
# ``setup_s``.


class ChurnPlan:
    """Deterministic batches from the seed, replayable after the window."""

    def __init__(self, data, seed) -> None:
        self.rng = np.random.default_rng(seed)
        self.lo = data.points.min(axis=0)
        self.hi = data.points.max(axis=0)
        self.points = np.asarray(data.points, dtype=float)
        self.alive = np.ones(data.n, dtype=bool)
        self.alive_by_version = [self.alive.copy()]

    def next_batch(self):
        dim = self.lo.shape[0]
        inserts = self.lo + self.rng.random((CHURN_BATCH, dim)) * (self.hi - self.lo)
        deletes = np.sort(self.rng.choice(
            np.flatnonzero(self.alive), size=CHURN_BATCH, replace=False
        ))
        self.alive[deletes] = False
        self.alive = np.concatenate([self.alive, np.ones(CHURN_BATCH, dtype=bool)])
        self.points = np.concatenate([self.points, inserts])
        self.alive_by_version.append(self.alive.copy())
        return inserts, deletes

    def version_points(self, version: int):
        """``(points, alive global ids)`` of one version."""
        alive = self.alive_by_version[version]
        points = self.points[: alive.shape[0]]
        ids = np.flatnonzero(alive)
        return points[ids], ids


def _churn_client(server: Server, plan: ChurnPlan, held: List[int], radius: float):
    def run(t_end: float, records: list) -> None:
        client = Client(server.host, server.port)
        previous = held
        version = 0
        try:
            while version < EPOCH_BATCHES and time.perf_counter() < t_end:
                inserts, deletes = plan.next_batch()
                version += 1
                body = _post(
                    client, "change", "/mutate",
                    {"dataset": DATASET, "inserts": inserts.tolist(),
                     "deletes": [int(i) for i in deletes],
                     "repair": {"radius": radius, "previous": previous}},
                    records,
                )
                if body is None:
                    # The batch may or may not have been applied, so the
                    # plan no longer replays the server's versions.
                    return
                records[-1]["check"] = ("repair", version, body["version"], body["repair"]["selected"])
                previous = body["repair"]["selected"]
                body = _post(
                    client, "select", "/select",
                    {"dataset": DATASET, "radius": radius, "engine": ENGINE}, records,
                )
                if body is not None:
                    records[-1]["check"] = ("read", version, body["version"],
                                            body["result"]["selected"])
        finally:
            client.close()

    return run


def _check_churn(records, plan: ChurnPlan, metric, radius: float) -> List[str]:
    failures = []
    for rec in records:
        check = rec.get("check")
        if check is None:
            continue
        kind, expected, version, selected = check
        if version != expected:
            failures.append(f"{kind} answered version {version}, expected {expected}")
            rec["status"] = -1
            continue
        points, ids = plan.version_points(version)
        if kind == "read" and version % PARITY_EVERY == 0:
            reference = disc_select(
                points, radius, metric=metric, engine="grid",
                engine_options=ENGINE["options"],
            ).selected
            if [int(i) for i in reference] != selected:
                failures.append(f"/select at v{version} differs from disc_select")
                rec["status"] = -1
                continue
        if kind == "repair":
            # A repair answers in global ids; map them to the version's
            # compacted (local) ones, which a read already uses.
            local = np.searchsorted(ids, selected)
            if not np.array_equal(ids[np.minimum(local, len(ids) - 1)], selected):
                failures.append(f"repaired selection at v{version} names deleted points")
                rec["status"] = -1
                continue
            selected = [int(i) for i in local]
        if not verify_disc(points, metric, selected, radius).is_disc_diverse:
            failures.append(f"{kind} result at v{version} is not DisC diverse")
            rec["status"] = -1
    return failures


def live_serial(seed: int, seconds: float, workdir: str, spans_out=None,
                setups: int = SETUPS) -> Pass:
    data = clustered_dataset(n=LIVE_N, seed=DATA_SEED)
    radius = BASE * radius_scale(seed)
    reference = [int(i) for i in disc_select(
        data, radius, engine="grid", engine_options=ENGINE["options"]
    ).selected]

    def start(epoch: int) -> Tuple[Server, List[int]]:
        out = None if spans_out is None else f"{spans_out}.e{epoch}"
        server = Server(_serve_args(LIVE_N, ["--live"]), workdir, out)
        try:
            client = Client(server.host, server.port)
            warm: list = []
            body = _post(client, "select", "/select",
                         {"dataset": DATASET, "radius": radius, "engine": ENGINE}, warm)
            client.close()
            if body is None or body["result"]["selected"] != reference:
                raise BenchError("live warm-up select failed or differs from disc_select")
        except BaseException:
            server.stop()
            raise
        return server, body["selected_global"]

    records: List[dict] = []
    windows: List[Tuple[float, float]] = []
    setup_times: List[float] = []
    failures: List[str] = []
    rss = 0.0
    epoch = 0
    while sum(t1 - t0 for t0, t1 in windows) < seconds or len(setup_times) < setups:
        t0 = time.perf_counter()
        server, held = start(epoch)
        setup_times.append(time.perf_counter() - t0)
        plan = ChurnPlan(data, (seed, epoch))
        try:
            epoch_records, t0, t1 = closed_loop(
                [_churn_client(server, plan, held, radius)], seconds, warmup=0.0
            )
            probe = Client(server.host, server.port)
            stats = probe.get_json("/stats")
            probe.close()
            rss = max(rss, server.peak_rss_mb())
        finally:
            server.stop()
        windows.append((t0, t1))
        records += epoch_records
        failures += _check_churn(epoch_records, plan, data.metric, radius)
        epoch += 1
    # The cache counters are those of the last epoch: every epoch sends
    # the same number of batches, so they repeat from run to run.
    return Pass(records, windows, setup_times, rss, stats=stats,
                check_failures=failures, solution_size=len(reference))
