"""Shared plumbing: server processes, the HTTP client, percentiles, RSS."""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(ROOT, "perfbench", "launch.py")

#: Seconds a server may take to print its listening line.
START_TIMEOUT_S = 60.0
#: Socket timeout of every benchmark request.
REQUEST_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_TOTAL = re.compile(r"total;dur=([0-9.]+)")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise BenchError("no samples to take a percentile of")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _tree_pids(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    pids = [pid]
    for current in pids:
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    pids.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return pids


def peak_rss_mb(pid: int) -> float:
    """Largest ``VmHWM`` (peak resident set) in ``pid``'s process tree."""
    peak_kb = 0
    for current in _tree_pids(pid):
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            pass
    return peak_kb / 1024.0


class Server:
    """One ``repro serve`` subprocess on an ephemeral port.

    With ``spans_out`` it is started through ``perfbench/launch.py``,
    which records layer spans and writes them there on shutdown.  The
    process leads its own session so :meth:`stop` can reap the whole
    tree (a supervised pool's workers included) even if the front hangs.
    """

    def __init__(self, serve_args: List[str], workdir: str, spans_out: Optional[str] = None):
        command = ["serve", "--host", "127.0.0.1", "--port", "0", *serve_args]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", *command]
        else:
            argv = [sys.executable, LAUNCHER, spans_out, *command]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log_path = os.path.join(workdir, f"server-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        self.host = "127.0.0.1"
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=0.5):
                    if self.proc.poll() is not None:
                        break
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return int(match.group(1))
        raise BenchError(f"server did not start:\n{self._tail()}")

    def _tail(self) -> str:
        self._log.flush()
        with open(self.log_path) as handle:
            return handle.read()[-2000:]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait for a graceful exit, else SIGKILL the tree."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.communicate()
        self._log.close()


class Client:
    """One keep-alive HTTP connection; returns body bytes and timings."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, payload=None):
        """``(status, body_bytes, latency_s, server_total_s or None)``."""
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        latency = time.perf_counter() - start
        timing = response.getheader("Server-Timing") or ""
        match = _TOTAL.search(timing)
        total = float(match.group(1)) / 1e3 if match else None
        return response.status, data, latency, total

    def get_json(self, path: str) -> dict:
        status, data, _latency, _total = self.call("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()
