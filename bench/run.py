"""Seeded end-to-end benchmark of the thermolens command line.

    python3 bench/run.py --workload editlog|pagefits|theory|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src`` directory. Inputs are generated here, in this process, and the
operations run in a separate worker process (``worker.py``) that calls
``thermolens.cli.main`` once per operation. Operations come in rounds of
the same make-up; rounds run until the timed operations have taken
``--seconds`` in total, and at least three rounds run. Every output is
checked against ``oracles.py``.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` rounds alternate
untraced and traced, and it holds the per-layer metrics from the traced
rounds' spans. The lines before it print every figure with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
SETUPS = 5  # set-ups per run; setup_s is their median
# At least three rounds, so that run_s is a median that one slow round cannot
# set, and a trace run has both untraced and traced rounds.
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
SUBCOMMANDS = ("evolve", "pages", "correlate", "synth", "metrics", "fit", "curves", "verify")

# Per-layer self times of functions every workload calls, in seconds.
LAYER_SECONDS = {
    "cli.self_s": "cli.main",
    "powerlaw.zeta_s": "powerlaw.zeta",
    "powerlaw.ks_statistic_s": "powerlaw.ks_statistic",
    "powerlaw.classify_s": "powerlaw.classify",
    "powerlaw.mle_fit_s": "powerlaw.mle_fit",
    "thermo.thermo_report_s": "thermo.thermo_report",
}
# Functions some workload never calls: a share of the traced operation time.
LAYER_SHARES = (
    "analytics.parse_events",
    "analytics.monthly_collections",
    "analytics.page_collections",
    "analytics.page_timelines",
    "analytics.saturation_filter",
    "analytics.page_reports",
    "analytics.correlate_pages",
    "analytics.read_readership_csv",
    "powerlaw.sample",
    "structure.max_entropy_oracle",
    "structure.stationarity_report",
    "structure.efficiency_vs_alpha_curve",
    "structure.energy_curve",
    "structure.class_decompose",
    "collection.read_collection_csv",
    "collection.write_collection_csv",
)
LAYER_CALLS = {
    "powerlaw.zeta_calls": "powerlaw.zeta",
    "powerlaw.classify_calls": "powerlaw.classify",
    "thermo.thermo_report_calls": "thermo.thermo_report",
}


class BenchError(Exception):
    """The run cannot produce a result."""


class Worker:
    """A worker process and the line protocol spoken with it."""

    def __init__(self, warmup: list[str], deadline: float, probe: bool = False) -> None:
        self.deadline = deadline
        spawned = time.monotonic()
        script = Path(__file__).with_name("worker.py")
        argv = [sys.executable, str(script), str(SRC), json.dumps(warmup)]
        self.proc = subprocess.Popen(
            argv + (["--probe"] if probe else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            self.setup_s = self._receive()["ready"] - spawned
        except BaseException:
            self.close()
            raise

    def _receive(self) -> dict:
        if not self.selector.select(timeout=max(0.0, self.deadline - time.monotonic())):
            raise BenchError("worker did not answer before the run's time limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.selector.close()
        self.proc.stdout.close()
        self.proc.stdin.close()


def _with_threads(ops: list, threads: int | None) -> list:
    """Override the --threads value of every operation that takes one."""
    if threads is not None:
        for op in ops:
            if "--threads" in op.argv:
                op.argv[op.argv.index("--threads") + 1] = str(threads)
    return ops


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, threads: int | None = None
) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name](seed, list(WORKLOADS).index(name))
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = None
    try:
        warmup = workload.warmup(work)
        setups = []
        for _ in range(SETUPS - 1):
            probe = Worker(warmup, deadline, probe=True)
            setups.append(probe.setup_s)
            probe.close()
        round_dir = work / "round"
        round_dir.mkdir()
        ops = _with_threads(workload.next_round(round_dir), threads)
        worker = Worker(warmup, deadline)
        setups.append(worker.setup_s)

        latencies: dict[str, list[float]] = {}
        round_s = {False: [], True: []}
        attempted = failed = wrong = 0
        measured = 0.0
        k = 0
        while True:
            traced = trace and k % 2 == 1
            reply = worker.send({
                "cmd": "round", "trace": traced,
                "ops": [{"argv": op.argv, "deadline_s": op.deadline_s} for op in ops],
            })
            for op, result in zip(ops, reply["results"]):
                attempted += 1
                error = result["error"]
                if error is None:
                    try:
                        op.check(result["stderr"])
                    except Exception as exc:  # any malformed output is a wrong output
                        error = f"wrong output: {type(exc).__name__}: {exc}"
                        wrong += 1
                if error is None:
                    if not traced:
                        latencies.setdefault(op.subcommand, []).append(result["seconds"])
                else:
                    failed += 1
                    print(f"failed: {op.argv[0]} ({error})", file=sys.stderr)
            spent = sum(r["seconds"] for r in reply["results"])
            round_s[traced].append(spent)
            measured += spent
            k += 1
            if measured >= seconds and k >= MIN_ROUNDS:
                break
            shutil.rmtree(round_dir)
            round_dir.mkdir()
            ops = _with_threads(workload.next_round(round_dir), threads)
        spans_path = OUT_DIR / f"spans-{name}.jsonl" if trace else None
        finish = {"cmd": "finish", "spans": str(spans_path) if trace else None}
        peak_kb = worker.send(finish)["peak_rss_kb"]
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(round_s[False]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    per_op = {
        f"{sub}_s": (statistics.median(latencies[sub]), "s")
        for sub in SUBCOMMANDS
        if sub in latencies
    }
    layers = {}
    if trace:
        layers = layer_metrics(spans.read_spans(spans_path), sum(round_s[True]))
        overhead = statistics.median(round_s[True]) - statistics.median(round_s[False])
        layers["trace.overhead_s"] = (overhead, "s")
    return {
        "workload": name, "seed": seed, "rounds": round_s[False] + round_s[True],
        "attempted": attempted, "failed": failed, "correct": wrong == 0,
        "end_to_end": e2e, "per_op": per_op, "per_layer": layers,
    }


def layer_metrics(records: list[dict], traced_s: float) -> dict[str, tuple[float, str]]:
    summary = spans.summarize(records)
    empty = {"self_s": 0.0, "calls": 0, "max_s": 0.0, "counters": {}}

    def get(fn: str) -> dict:
        return summary.get(fn, empty)

    out: dict[str, tuple[float, str]] = {}
    for metric, fn in LAYER_SECONDS.items():
        out[metric] = (get(fn)["self_s"], "s")
    out["powerlaw.zeta_max_s"] = (get("powerlaw.zeta")["max_s"], "s")
    for fn in LAYER_SHARES:
        out[f"{fn}_pct"] = (100.0 * get(fn)["self_s"] / traced_s, "%")
    for metric, fn in LAYER_CALLS.items():
        out[metric] = (get(fn)["calls"], "count")
    counters = get("analytics.parse_events")["counters"]
    out["analytics.events_parsed"] = (counters.get("events_parsed", 0), "count")
    out["analytics.rows_skipped"] = (counters.get("rows_skipped", 0), "count")
    out["analytics.pool_parallelism"] = (spans.pool_parallelism(records), "ratio")
    return out


def report(result: dict, trace: bool) -> None:
    rounds = " ".join(f"{r:.3f}" for r in result["rounds"])
    print(f"workload {result['workload']}  seed {result['seed']}  rounds [{rounds}] s  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    sections = [("end-to-end", result["end_to_end"]), ("per subcommand (median)", result["per_op"])]
    if trace:
        sections.append(("per layer (traced rounds)", result["per_layer"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for metric, (value, unit) in metrics.items():
            print(f"    {metric:<42} {value:>14.6g} {unit}")
    chosen = result["per_layer"] if trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in chosen.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="run every --threads operation at this count instead of the "
                             "workload's own (for a single-threaded baseline)")
    args = parser.parse_args()
    if not (SRC / "thermolens" / "cli.py").is_file():
        print(f"bench: no thermolens sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.threads)
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
