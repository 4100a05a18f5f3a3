"""Run one ``python -m repro`` command with layer spans recorded.

    python perfbench/launch.py SPANS_OUT serve --port 0 ...

Wraps the layers' public functions (:func:`spans.install`) before
calling ``repro``'s own CLI entry point, and writes the spans as JSON
to ``SPANS_OUT`` when the command returns (``serve`` returns after
SIGTERM).  In a ``serve --workers N`` front the supervisor's worker
command is redirected through this launcher too, so each worker writes
``SPANS_OUT.w<k>``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trace_workers(spans_out: str) -> None:
    """Start supervised workers through this launcher as well."""
    import itertools
    import subprocess

    import repro.service.supervisor as supervisor

    counter = itertools.count()

    class _Subprocess:
        def __getattr__(self, name):
            return getattr(subprocess, name)

        @staticmethod
        def Popen(cmd, *args, **kwargs):
            if list(cmd[1:4]) == ["-m", "repro", "worker"]:
                out = f"{spans_out}.w{next(counter)}"
                cmd = [cmd[0], os.path.abspath(__file__), out, *cmd[3:]]
            return subprocess.Popen(cmd, *args, **kwargs)

    supervisor.subprocess = _Subprocess()


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: launch.py SPANS_OUT COMMAND [ARGS...]", file=sys.stderr)
        return 2
    spans_out, command = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import SpanRecorder, install

    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    install(recorder)
    _trace_workers(spans_out)
    try:
        return repro_main(command)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
