"""Span tracing of calls into the thermolens layers, and its summary.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every thermolens module that binds the original
name, so calls between modules are traced as well as calls from the
command line. Spans are kept in memory and written out once, at the end
of a run; ``uninstall`` restores the original functions, so untraced
rounds run the program unchanged.

Each thread keeps its own span stack. A span opened on a pool thread
with an empty stack takes as parent the innermost span then open on the
main thread, which is the call that submitted the work.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("cli", "analytics", "powerlaw", "thermo", "structure", "collection")

# Return-value counters recorded on the span of the function that produced them.
_COUNTERS = {
    "analytics.parse_events": lambda r: {"events_parsed": len(r.events), "rows_skipped": r.skipped},
}


def _public_functions(module) -> list[str]:
    if module.__name__.endswith(".cli"):
        return ["main"]
    return [
        name
        for name in module.__all__
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
    ]


class Tracer:
    def __init__(self) -> None:
        self.records: list[list] = []  # [name, thread, start, end, parent record, op, counters]
        self.op = 0
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name: str, fn):
        records = self.records
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            record = [name, threading.get_ident(), time.perf_counter(), 0.0, parent, self.op, None]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[6] = count(result)
                return result
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                records.append(record)

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "thermolens" or n.startswith("thermolens.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"thermolens.{layer}"]
            for fname in _public_functions(module):
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for binder in modules:
                    for attr, value in list(vars(binder).items()):
                        if value is original:
                            self._patches.append((binder, attr, original))
                            setattr(binder, attr, wrapper)

    def uninstall(self) -> None:
        for binder, attr, original in reversed(self._patches):
            setattr(binder, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        ids = {id(r): i for i, r in enumerate(self.records)}
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, thread, start, end, parent, op, counters) in enumerate(self.records):
                row = {"id": i, "parent": None if parent is None else ids.get(id(parent)),
                       "name": name, "thread": thread, "op": op, "start": start, "end": end}
                if counters:
                    row["counters"] = counters
                f.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------- summary


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children on pool threads may overlap one another, hence the union.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            children.setdefault(p["id"], []).append(
                (max(s["start"], p["start"]), min(s["end"], p["end"]))
            )
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }


def _has_ancestor(span: dict, names: set[str], by_id: dict[int, dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] in names:
            return True
        parent = by_id[parent]["parent"]
    return False


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per-function self time, call count, longest call and counters."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"self_s": 0.0, "calls": 0, "max_s": 0.0, "counters": {}})
        entry["self_s"] += own[s["id"]]
        entry["calls"] += 1
        entry["max_s"] = max(entry["max_s"], s["end"] - s["start"])
        for key, value in s.get("counters", {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return out


def pool_parallelism(spans: list[dict]) -> float:
    """Summed classify time over the wall time of the per-page batch spans."""
    batch = {"analytics.page_reports", "analytics.correlate_pages"}
    by_id = {s["id"]: s for s in spans}
    busy = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == "powerlaw.classify" and _has_ancestor(s, batch, by_id)
    )
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] in batch)
    return busy / wall if wall > 0.0 else 0.0
