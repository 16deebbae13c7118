"""Runs benchmark operations in process through ``thermolens.cli.main``.

Started by ``run.py`` as ``worker.py SRC_DIR WARMUP_JSON [--probe]``. It
imports thermolens from SRC_DIR, makes the untimed warm-up call, reports
``{"ready": <monotonic time>}`` and exits if ``--probe`` is given.
Otherwise it reads one JSON command per line on stdin and answers each
with one JSON line on stdout:

- ``{"cmd": "round", "ops": [{"argv": [...], "deadline_s": null}], "trace": false}``
  runs the operations in order, timing each;
- ``{"cmd": "finish", "spans": PATH | null}`` writes the spans recorded in
  traced rounds, reports the peak resident memory and exits.

Inputs are made by the parent, so the high-water memory mark of this
process is set by the program alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


class DeadlineExceeded(Exception):
    """An operation ran past its deadline and was stopped."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(cli, argv: list[str], deadline_s: float | None) -> dict:
    err, out = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        if deadline_s:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
    except DeadlineExceeded:
        error = f"stopped at the {deadline_s} s deadline"
    except Exception as exc:  # a traceback from the program is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "error": error, "stderr": err.getvalue()}


def _reply(payload: dict) -> None:
    sys.__stdout__.write(json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    warmup = json.loads(sys.argv[2])
    sys.path.insert(0, str(src))
    import thermolens
    from thermolens import cli

    if src not in Path(thermolens.__file__).resolve().parents:
        print(f"worker: imported thermolens from {thermolens.__file__}, not {src}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGALRM, _on_alarm)
    result = run_op(cli, warmup, None)
    if result["error"]:
        print(f"worker: warm-up call failed: {result['error']}", file=sys.stderr)
        return 3
    _reply({"ready": time.monotonic()})
    if "--probe" in sys.argv[3:]:
        return 0

    tracer = None
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "finish":
            if tracer is not None and command["spans"]:
                tracer.write(Path(command["spans"]))
            _reply({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        if command["trace"] and tracer is None:
            from spans import Tracer

            tracer = Tracer()
        results = []
        if command["trace"]:
            tracer.install()
        try:
            for op in command["ops"]:
                if tracer is not None:
                    tracer.op += 1
                results.append(run_op(cli, op["argv"], op["deadline_s"]))
        finally:
            if command["trace"]:
                tracer.uninstall()
        _reply({"results": results})
    return 0


if __name__ == "__main__":
    sys.exit(main())
