"""Shared builders for synthetic collections and event corpora."""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np

from thermolens import Collection, EventTable, from_values, powerlaw

MONTH_SPAN = 27 * 86400  # offsets below this stay inside any calendar month


def month_start(year: int, month: int) -> int:
    return int(datetime(year, month, 1, tzinfo=timezone.utc).timestamp())


def geometric_collection(n: int, p: float, seed: int) -> Collection:
    """Seeded geometric sample (support >= 1): an exponential-tailed control."""
    rng = np.random.default_rng(seed)
    return from_values([int(v) for v in rng.geometric(p, size=n)])


def random_histogram(rng: np.random.Generator, max_value: int = 1000) -> Collection:
    """Random histogram containing value 1 and at least one larger value."""
    k = int(rng.integers(2, 30))
    values = {1, int(rng.integers(2, max_value + 1))}
    values.update(int(v) for v in rng.integers(2, max_value + 1, size=k))
    return Collection({v: int(rng.integers(1, 1000)) for v in sorted(values)})


def corpus_lines(
    months: list[tuple[int, int, float, int]],
    seed: int,
    value_cap: int = 5000,
    n_pages: int = 20,
) -> list[str]:
    """Event CSV lines for a synthetic multi-month corpus.

    Each (year, month, alpha, n_editors) entry contributes one calendar
    month whose per-editor edit counts are drawn from the power-law
    sampler (capped at value_cap). Every editor's edits land on a single
    page, round-robin across n_pages pages.
    """
    lines = ["ts,editor,page"]
    editor_serial = 0
    for idx, (year, month, alpha, n_editors) in enumerate(months):
        start = month_start(year, month)
        hist = powerlaw.sample(alpha, n_editors, seed + idx)
        for value, count in sorted(hist.counts.items()):
            edits = min(value, value_cap)
            for _ in range(count):
                editor = f"e{editor_serial}"
                page = f"p{editor_serial % n_pages}"
                editor_serial += 1
                base = start + (editor_serial * 53) % (MONTH_SPAN - value_cap)
                lines.extend(
                    f"{base + k},{editor},{page}" for k in range(edits)
                )
    return lines


def event_table(rows: list[tuple[int, str, str]]) -> EventTable:
    """The event table of ``(ts, editor, page)`` rows, ids taken as given."""
    ts, editors, pages = zip(*rows) if rows else ((), (), ())
    editor_names, editor = _codes(editors)
    page_names, page = _codes(pages)
    return EventTable(np.array(ts, dtype=np.int64), editor, page, editor_names, page_names)


def _codes(ids: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    names = tuple(sorted(set(ids)))
    index = {name: code for code, name in enumerate(names)}
    return names, np.array([index[i] for i in ids], dtype=np.intp)


def table_rows(table: EventTable) -> list[tuple[int, str, str]]:
    """The ``(ts, editor, page)`` rows of an event table, in table order."""
    return [
        (ts, table.editors[e], table.pages[p])
        for ts, e, p in zip(table.ts.tolist(), table.editor.tolist(), table.page.tolist())
    ]


def corpus_event_count(lines: list[str]) -> int:
    return len(lines) - 1  # minus header


def planted_pages(
    n_pages: int,
    seed: int,
    alpha_range: tuple[float, float] = (1.5, 3.0),
    editors_range: tuple[int, int] = (200, 800),
) -> dict[str, Collection]:
    """Per-page collections with exponents spread across alpha_range."""
    rng = np.random.default_rng(seed)
    lo, hi = alpha_range
    pages = {}
    for i in range(n_pages):
        alpha = lo + (hi - lo) * i / max(1, n_pages - 1)
        n = int(rng.integers(*editors_range))
        pages[f"page{i:04d}"] = powerlaw.sample(alpha, n, seed + 1000 + i)
    return pages


def efficiency_of(c: Collection) -> float | None:
    e = c.log_value_sum / c.population
    if e == 0.0:
        return None
    n = c.population
    s = math.log(n) - math.fsum(k * math.log(k) for k in c.counts.values()) / n
    return s / e
