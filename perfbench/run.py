"""DisC performance ledger: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload interactive_pool --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
line before it holds the environment stamp, the sample counts and the
check failures.  ``perfbench/README.md`` describes the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

from statistics import median

from common import ROOT, BenchError, percentile

WORKLOADS = ("interactive_pool", "live_serial")
#: Wall-clock limit of one run; a hang becomes a failed run.
DEADLINE_S = 170
#: Endpoint timed as ``change`` on each server workload.
CHANGE_ENDPOINT = {
    "interactive_pool": "zoom",
    "live_serial": "mutate",
}
#: Spans that must be recorded on each workload's traced pass.
REQUIRED_SPANS = {
    "interactive_pool": ("index.build", "graph.adjacency_build", "graph.decrement",
                         "core.greedy", "core.zoom_in", "core.zoom_out"),
    "live_serial": ("datasets.generate", "index.build", "graph.decrement", "core.greedy",
                    "live.apply", "live.repair", "live.snapshot"),
}
#: Per-layer metrics reported as mean self time per call, by span name.
SPAN_METRICS = {
    "index.build_s": "index.build",
    "graph.adjacency_build_s": "graph.adjacency_build",
    "graph.decrement_s": "graph.decrement",
    "core.greedy_s": "core.greedy",
    "core.zoom_in_s": "core.zoom_in",
    "core.zoom_out_s": "core.zoom_out",
    "live.apply_s": "live.apply",
    "live.repair_s": "live.repair",
    "live.snapshot_s": "live.snapshot",
    "datasets.generate_s": "datasets.generate",
}
#: Per-layer metrics reported as call counts, by span name.
CALL_METRICS = {
    "index.build_calls": "index.build",
    "graph.adjacency_builds": "graph.adjacency_build",
    "graph.decrement_calls": "graph.decrement",
    "core.greedy_calls": "core.greedy",
}

UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB", "_rps": "1/s", "_frac": "fraction",
         "_bytes": "bytes", "_ratio": "fraction"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def ok_records(p, kind: str):
    """Successful timed operations of one kind."""
    return [r for r in p.records
            if r["kind"] == kind and r["status"] == 200 and not r.get("warm")]


def operations(p, timed: bool = True):
    """Records that are operations of their own (not a part of one)."""
    return [r for r in p.records if not r.get("part") and not (timed and r.get("warm"))]


def end_to_end(p) -> dict:
    metrics = {"setup_s": median(p.setup_s)}
    for kind in ("select", "change"):
        latencies = [r["latency_s"] * 1e3 for r in ok_records(p, kind)]
        metrics[f"{kind}_p50_ms"] = percentile(latencies, 0.50)
        metrics[f"{kind}_p90_ms"] = percentile(latencies, 0.90)
    done = [r for r in operations(p) if r["status"] == 200]
    metrics["throughput_rps"] = len(done) / sum(end - start for start, end in p.windows)
    metrics["peak_rss_mb"] = p.rss_mb
    return metrics


def _median_latency(p, kind: str) -> float:
    return median([r["latency_s"] for r in ok_records(p, kind)])


def per_layer(workload: str, plain, traced) -> dict:
    """Per-layer metrics of the traced pass ``traced``."""
    from spans import roots_in, summarize

    metrics = {}
    endpoints = {"select": "select", "change": CHANGE_ENDPOINT[workload]}
    for endpoint in ("select", "zoom", "mutate"):
        for field in ("wire_ms", "queue_ms", "compute_ms", "response_bytes"):
            metrics[f"service.{endpoint}.{field}"] = 0.0
    metrics["service.front_hop_ms"] = 0.0
    for kind, endpoint in endpoints.items():
        recs = ok_records(traced, kind)
        compute = [r["elapsed_s"] * 1e3 for r in recs]
        metrics[f"service.{endpoint}.compute_ms"] = median(compute)
        metrics[f"service.{endpoint}.response_bytes"] = sum(r["nbytes"] for r in recs) / len(recs)
        if workload == "interactive_pool":
            # The front drops Server-Timing: the body's elapsed_s is the
            # only per-request split, and the rest is the front's hop.
            hop = [(r["latency_s"] - r["elapsed_s"]) * 1e3 for r in recs]
            metrics["service.front_hop_ms"] = median(hop)
            continue
        wire = [(r["latency_s"] - r["server_s"]) * 1e3 for r in recs]
        queue = [(r["server_s"] - r["elapsed_s"]) * 1e3 for r in recs]
        metrics[f"service.{endpoint}.wire_ms"] = median(wire)
        metrics[f"service.{endpoint}.queue_ms"] = median(queue)

    cache, stats = {}, traced.stats or {}
    if workload == "interactive_pool":
        totals = stats["totals"]
        for worker in stats["workers"]:
            worker_cache = (worker.get("stats") or {}).get("cache") or {}
            for key in ("hits", "misses"):
                cache[key] = cache.get(key, 0) + worker_cache.get(key, 0)
        cache.update(builds=totals["builds"], migrations=totals["migrations"],
                     coalesced=totals["coalesced_requests"])
        metrics["service.shm_hits"] = totals["shm_hits"]
        metrics["service.builds_total"] = totals["builds"]
    else:
        info = stats.get("cache") or {}
        cache = {key: info.get(key, 0) for key in ("hits", "misses", "builds", "migrations")}
        cache["coalesced"] = stats.get("coalesced_requests", 0)
        metrics["service.shm_hits"] = 0
        metrics["service.builds_total"] = cache["builds"]
    for key in ("hits", "misses", "builds", "coalesced", "migrations"):
        metrics[f"service.cache.{key}"] = cache.get(key, 0)
    seen = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["service.cache.hit_ratio"] = cache.get("hits", 0) / seen if seen else 0.0

    summary = summarize(traced.spans)
    missing = [name for name in REQUIRED_SPANS[workload] if name not in summary]
    if missing:
        raise BenchError(f"traced run recorded no spans for {missing}")
    for metric, name in SPAN_METRICS.items():
        metrics[metric] = summary.get(name, {}).get("mean_self_s", 0.0)
    for metric, name in CALL_METRICS.items():
        metrics[metric] = summary.get(name, {}).get("calls", 0)
    built = summary.get("graph.adjacency_build", {}).get("values", [])
    metrics["graph.adjacency_mb"] = sum(built) / len(built) / 2**20 if built else 0.0
    metrics["core.solution_size"] = traced.solution_size

    # Residue: the part of the end-to-end time no layer accounts for.
    # Client latency = wire + queue + compute (elapsed_s), and compute
    # contains the top-level spans, so what is left is compute that no
    # span covers (request validation, result encoding).  A coalesced
    # answer shares its leader's computation (and its elapsed_s) but
    # records no spans of its own.
    done = [r for r in operations(traced) if r["status"] == 200]
    total = sum(r["latency_s"] for r in done)
    covered = sum(roots_in(traced.spans, start, end) for start, end in traced.windows)
    untraced = sum(r["elapsed_s"] for r in done if not r["coalesced"]) - covered
    metrics["bench.layer_residue_frac"] = untraced / total
    ratios = [_median_latency(traced, k) / _median_latency(plain, k) for k in ("select", "change")]
    metrics["bench.trace_overhead_frac"] = sum(ratios) / len(ratios) - 1.0
    return metrics


def run_pass(workload: str, seed: int, seconds: float, workdir: str, traced: bool, setups=None):
    import workloads

    kwargs = {} if setups is None else {"setups": setups}
    spans_out = os.path.join(workdir, "spans.json") if traced else None
    run = workloads.live_serial if workload == "live_serial" else workloads.interactive_pool
    p = run(seed, seconds, workdir, spans_out=spans_out, **kwargs)
    if traced:
        from spans import load

        # One file per process (front, workers); span ids are per process.
        p.spans = [
            span
            for number, path in enumerate(sorted(glob.glob(spans_out + "*")))
            for span in load(path, id_offset=number << 32)
        ]
    return p


def _git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    # ``.git`` is a directory in a clone and a file in a worktree; without
    # it git would report an enclosing repository's commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(), "seed": seed}


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded its {DEADLINE_S} s deadline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro here; run from a source checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.trace:
            # The seed's parity picks which pass runs first, so over
            # seeds the machine's drift between the two passes does not
            # always land on the same side of the overhead.  Each pass
            # measures half of the run's seconds.
            order = (False, True) if args.seed % 2 == 0 else (True, False)
            by_mode = {traced: run_pass(args.workload, args.seed, args.seconds / 2, workdir,
                                        traced, setups=1)
                       for traced in order}
            metrics = per_layer(args.workload, by_mode[False], by_mode[True])
            passes = list(by_mode.values())
            reported = by_mode[True]
        else:
            reported = run_pass(args.workload, args.seed, args.seconds, workdir, False)
            metrics = end_to_end(reported)
            passes = [reported]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    failures = [f for q in passes for f in q.check_failures]
    # Warm-up operations are checked and counted, only not timed.
    attempted = sum(len(operations(q, timed=False)) for q in passes)
    failed_ops = [r for q in passes for r in operations(q, timed=False) if r["status"] != 200]
    # An error answer is a wrong output too; wrong answers (-1) already
    # carry their own check failure.
    failures += sorted({f"{r['kind']} answered {r['status']}: {r.get('error', '')[:160]}"
                        for r in failed_ops if r["status"] != -1})
    samples = {kind: len(ok_records(reported, kind)) for kind in ("select", "change")}
    detail = {"workload": args.workload, "env": environment(args.seed),
              "samples": samples, "check_failures": failures[:20]}
    print(json.dumps(detail))
    for kind, count in samples.items():
        if count < 100:
            print(f"perfbench: only {count} {kind} samples; p90 has fewer than "
                  "10 beyond it", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
