"""Edit-log analytics: ingestion, windowing, page selection, correlation.

The pipeline turns a flat event log (timestamp, editor, page) into monthly
editor collections and per-page editor collections, computes the metric
bundle for each, filters pages whose editing history has saturated, and
correlates page metrics against an external readership signal.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from . import powerlaw, thermo
from .collection import Collection, CsvRows, EnergyModel, Row
from .errors import DegenerateError, DomainError

__all__ = [
    "EditEvent",
    "ParseResult",
    "PageTimeline",
    "PageMetrics",
    "EvolutionRow",
    "GroupCorrelations",
    "CorrelationReport",
    "parse_events",
    "monthly_collections",
    "page_collections",
    "page_timelines",
    "saturation_filter",
    "saturated_pages",
    "pearson",
    "evolution_report",
    "page_reports",
    "correlate_pages",
    "read_readership_csv",
]

DEFAULT_MIN_EDITS = 4500
DEFAULT_TAIL_FRAC = 0.10
DEFAULT_GROWTH_FRAC = 0.05

EVENT_HEADER = ("ts", "editor", "page")


@dataclass(frozen=True, slots=True)
class EditEvent:
    """One edit: who touched which page, at which UTC epoch second."""

    timestamp: int
    editor_id: str
    page_id: str


@dataclass(frozen=True)
class ParseResult:
    events: list[EditEvent]
    skipped: int


def parse_events(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse a ``ts,editor,page`` CSV stream into events.

    Rows with the wrong arity, empty ids, or unparseable/negative
    timestamps are skipped and tallied in lenient mode; in strict mode the
    first such row raises DomainError. Lines starting with ``#`` are
    comments. The header row is mandatory.
    """
    rows = CsvRows(lines, EVENT_HEADER, "event")
    events: list[EditEvent] = []
    skipped = 0
    for row in rows:
        if not row:
            continue
        event = _parse_row(row)
        if event is None:
            if strict:
                raise DomainError(f"line {rows.line}: malformed event row {row!r}")
            skipped += 1
            continue
        events.append(event)
    return ParseResult(events=events, skipped=skipped)


def _parse_row(row: list[str]) -> EditEvent | None:
    if len(row) != 3:
        return None
    # int() and float() ignore the whitespace around raw_ts themselves.
    raw_ts, editor, page = row
    editor = editor.strip()
    page = page.strip()
    if not editor or not page:
        return None
    try:
        ts = int(raw_ts)
    except ValueError:
        try:
            ts_f = float(raw_ts)
        except ValueError:
            return None
        if not math.isfinite(ts_f):
            return None
        ts = int(ts_f)
    if ts < 0:
        return None
    return EditEvent(timestamp=ts, editor_id=editor, page_id=page)


@lru_cache(maxsize=65536)
def _month_of_day(day: int) -> str:
    dt = datetime.fromtimestamp(day * 86400, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def month_key(timestamp: int) -> str:
    """UTC calendar month of an epoch-second timestamp, as ``YYYY-MM``."""
    return _month_of_day(timestamp // 86400)


def _histogram(editor_counts: Mapping[str, int]) -> Collection:
    return Collection(dict(Counter(editor_counts.values())))


def monthly_collections(events: Iterable[EditEvent]) -> dict[str, Collection]:
    """Histogram of per-editor edit counts for each UTC calendar month.

    Membership is per month: an editor active in two months contributes an
    individual to each month's collection independently.
    """
    per_month: dict[str, Counter[str]] = {}
    for e in events:
        key = month_key(e.timestamp)
        bucket = per_month.get(key)
        if bucket is None:
            bucket = per_month[key] = Counter()
        bucket[e.editor_id] += 1
    return {m: _histogram(per_month[m]) for m in sorted(per_month)}


def page_collections(events: Iterable[EditEvent]) -> dict[str, Collection]:
    """Histogram of per-editor total edit counts for each page."""
    per_page: dict[str, Counter[str]] = {}
    for e in events:
        bucket = per_page.get(e.page_id)
        if bucket is None:
            bucket = per_page[e.page_id] = Counter()
        bucket[e.editor_id] += 1
    return {p: _histogram(per_page[p]) for p in sorted(per_page)}


@dataclass(frozen=True)
class PageTimeline:
    """Edit timestamps of one page, ascending; index + 1 is the running count."""

    page_id: str
    timestamps: tuple[int, ...]

    @property
    def creation_ts(self) -> int:
        return self.timestamps[0]

    @property
    def total_edits(self) -> int:
        return len(self.timestamps)

    def edits_since(self, ts: float) -> int:
        """Number of edits at or after the given time."""
        return len(self.timestamps) - bisect_left(self.timestamps, ts)


def page_timelines(events: Iterable[EditEvent]) -> dict[str, PageTimeline]:
    per_page: dict[str, list[int]] = {}
    for e in events:
        per_page.setdefault(e.page_id, []).append(e.timestamp)
    return {
        p: PageTimeline(page_id=p, timestamps=tuple(sorted(ts)))
        for p, ts in sorted(per_page.items())
    }


def saturation_filter(
    timeline: PageTimeline,
    horizon_end: int,
    min_edits: int = DEFAULT_MIN_EDITS,
    tail_frac: float = DEFAULT_TAIL_FRAC,
    growth_frac: float = DEFAULT_GROWTH_FRAC,
) -> bool:
    """True when a page is big enough and its editing has flattened out.

    The page must hold at least min_edits edits, and the edits falling in
    the final tail_frac of wall-clock time between its creation and the
    analysis horizon must stay below growth_frac of its total.
    """
    if not timeline.timestamps:
        raise DomainError("timeline is empty")
    creation = timeline.creation_ts
    if horizon_end < creation:
        raise DomainError(
            f"horizon {horizon_end} precedes page creation {creation}"
        )
    if timeline.total_edits < min_edits:
        return False
    tail_start = horizon_end - tail_frac * (horizon_end - creation)
    return timeline.edits_since(tail_start) < growth_frac * timeline.total_edits


def saturated_pages(
    events: Sequence[EditEvent],
    horizon_end: int | None = None,
    min_edits: int = DEFAULT_MIN_EDITS,
    tail_frac: float = DEFAULT_TAIL_FRAC,
    growth_frac: float = DEFAULT_GROWTH_FRAC,
) -> set[str]:
    """Ids of the pages that pass saturation_filter at the horizon.

    The horizon defaults to the last event timestamp in the corpus; an
    empty corpus has no pages, saturated or not.
    """
    if not events:
        return set()
    horizon = horizon_end if horizon_end is not None else max(e.timestamp for e in events)
    return {
        p
        for p, timeline in page_timelines(events).items()
        if saturation_filter(timeline, horizon, min_edits, tail_frac, growth_frac)
    }


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length sequences."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise DomainError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DomainError(f"need at least 2 points, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateError("zero variance in at least one sequence")
    rho = float(dx @ dy) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, rho))


@dataclass(frozen=True)
class EvolutionRow(Row):
    """One month of the evolution series: the month and its metric bundle."""

    month: str
    report: thermo.ThermoReport

    @property
    def log_population(self) -> float:
        return math.log(self.report.population)

    COLUMNS = (
        ("month", "month"),
        ("N", "report.population"),
        ("S", "report.entropy"),
        ("R", "report.entropy_reduction"),
        ("logN", "log_population"),
        ("E", "report.avg_energy"),
        ("Q", "report.entropy_efficiency"),
        ("alpha", "report.alpha"),
        ("A", "report.free_energy"),
        ("fe_ratio", "report.fe_reduction_ratio"),
    )


_T = TypeVar("_T")
_R = TypeVar("_R")


def _map_workers(fn: Callable[[_T], _R], items: Sequence[_T], threads: int) -> list[_R]:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def evolution_report(
    monthly: Mapping[str, Collection],
    model: EnergyModel = EnergyModel.LOGARITHMIC,
) -> list[EvolutionRow]:
    """The metric bundle of each month, ordered by month.

    Months whose collections are degenerate keep their row with the
    affected fields absent; the series never aborts. Each row depends only
    on that month's collection.
    """
    return [
        EvolutionRow(month=month, report=thermo.thermo_report(coll, model))
        for month, coll in sorted(monthly.items())
    ]


def read_readership_csv(lines: Iterable[str]) -> dict[str, int]:
    """Read ``page,clicks`` rows into a mapping; later rows accumulate."""
    rows = CsvRows(lines, ("page", "clicks"), "readership")
    clicks: dict[str, int] = {}
    for row in rows:
        if not row:
            continue
        if len(row) != 2 or not row[0].strip():
            raise DomainError(f"line {rows.line}: malformed readership row {row!r}")
        try:
            count = int(row[1])
        except ValueError:
            raise DomainError(f"line {rows.line}: non-integer clicks {row[1]!r}") from None
        if count < 0:
            raise DomainError(f"line {rows.line}: negative clicks {count}")
        page = row[0].strip()
        clicks[page] = clicks.get(page, 0) + count
    return clicks


@dataclass(frozen=True)
class PageMetrics(Row):
    """Per-page metric bundle used by the pages and correlate outputs.

    A page without a power-law fit (one value, zero log-spread, or an
    exponent too close to 1) has no KS distance and is not a power law.
    """

    page_id: str
    report: thermo.ThermoReport
    total_energy: float
    total_edits: int
    ks_stat: float | None
    is_power_law: bool
    saturated: bool | None = None
    readership: int | None = None

    @property
    def alpha(self) -> float | None:
        """The fitted exponent, absent when the page has no power-law fit."""
        return None if self.ks_stat is None else self.report.alpha

    COLUMNS = (
        ("page", "page_id"),
        ("N", "report.population"),
        ("S", "report.entropy"),
        ("R", "report.entropy_reduction"),
        ("Q", "report.entropy_efficiency"),
        ("total_energy", "total_energy"),
        ("total_edits", "total_edits"),
        ("alpha", "alpha"),
        ("D", "ks_stat"),
        ("is_power_law", "is_power_law"),
        ("saturated", "saturated"),
    )


def _page_metrics(
    page_id: str,
    coll: Collection,
    model: EnergyModel,
    ks_threshold: float,
    saturated: bool | None = None,
    readership: int | None = None,
) -> PageMetrics:
    report = thermo.thermo_report(coll, model)
    d = None
    if report.alpha is not None:
        try:
            d = powerlaw.ks_statistic(coll, report.alpha)
        except DomainError:
            pass  # an exponent too close to 1 has no zeta law to test against
    total_energy = (
        coll.log_value_sum if model is EnergyModel.LOGARITHMIC else float(coll.value_sum)
    )
    return PageMetrics(
        page_id=page_id,
        report=report,
        total_energy=total_energy,
        total_edits=coll.value_sum,
        ks_stat=d,
        is_power_law=d is not None and d < ks_threshold,
        saturated=saturated,
        readership=readership,
    )


def page_reports(
    events: Sequence[EditEvent],
    horizon_end: int | None = None,
    min_edits: int = DEFAULT_MIN_EDITS,
    tail_frac: float = DEFAULT_TAIL_FRAC,
    growth_frac: float = DEFAULT_GROWTH_FRAC,
    model: EnergyModel = EnergyModel.LOGARITHMIC,
    ks_threshold: float = powerlaw.DEFAULT_KS_THRESHOLD,
    threads: int = 1,
) -> list[PageMetrics]:
    """Per-page metrics with saturation and power-law classification flags.

    The saturation horizon defaults to the last event timestamp in the
    corpus.
    """
    colls = page_collections(events)
    saturated = saturated_pages(events, horizon_end, min_edits, tail_frac, growth_frac)

    def build(page_id: str) -> PageMetrics:
        return _page_metrics(
            page_id, colls[page_id], model, ks_threshold, page_id in saturated
        )

    return _map_workers(build, sorted(colls), threads)


# PageMetrics columns correlated against readership and editor count.
_CORRELATION_METRICS = ("S", "R", "Q", "total_energy", "total_edits")


@dataclass(frozen=True)
class GroupCorrelations:
    """Correlations and summary stats for one page group."""

    size: int
    readership_rho: dict[str, float | None]
    editors_rho: dict[str, float | None]
    readership_mean: float | None
    readership_median: float | None
    edits_mean: float | None
    edits_median: float | None


@dataclass(frozen=True)
class CorrelationReport:
    """Groupwise correlation summary over the joined page set."""

    pages_analyzed: int
    pages_dropped: int
    ks_threshold: float
    groups: dict[str, GroupCorrelations]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _safe_rho(pairs: list[tuple[float, float]]) -> float | None:
    if len(pairs) < 2:
        return None
    try:
        return pearson([p[0] for p in pairs], [p[1] for p in pairs])
    except (DegenerateError, DomainError):
        return None


def _group_stats(members: list[PageMetrics]) -> GroupCorrelations:
    readership_rho: dict[str, float | None] = {}
    editors_rho: dict[str, float | None] = {}
    for key in _CORRELATION_METRICS:
        with_metric = [(m, val) for m in members if (val := m.column(key)) is not None]
        readership_rho[key] = _safe_rho(
            [(val, float(m.readership)) for m, val in with_metric if m.readership is not None]
        )
        editors_rho[key] = _safe_rho(
            [(val, float(m.report.population)) for m, val in with_metric]
        )
    readerships = [m.readership for m in members if m.readership is not None]
    edits = [m.total_edits for m in members]
    return GroupCorrelations(
        size=len(members),
        readership_rho=readership_rho,
        editors_rho=editors_rho,
        readership_mean=statistics.fmean(readerships) if readerships else None,
        readership_median=float(statistics.median(readerships)) if readerships else None,
        edits_mean=statistics.fmean(edits) if edits else None,
        edits_median=float(statistics.median(edits)) if edits else None,
    )


def correlate_pages(
    pages: Mapping[str, Collection],
    readership: Mapping[str, int],
    ks_threshold: float = powerlaw.DEFAULT_KS_THRESHOLD,
    model: EnergyModel = EnergyModel.LOGARITHMIC,
    threads: int = 1,
) -> CorrelationReport:
    """Classify pages and correlate their metrics with readership.

    The readership join is inner: pages without a readership record are
    dropped and tallied. Unfittable (zero-spread) pages count as
    non-power-law so the two groups partition the analyzed set. Pages with
    an absent metric are skipped for that metric's correlations only.
    """
    joined = sorted(p for p in pages if p in readership)
    dropped = len(pages) - len(joined)

    def build(page_id: str) -> PageMetrics:
        return _page_metrics(
            page_id,
            pages[page_id],
            model,
            ks_threshold,
            readership=readership[page_id],
        )

    metrics = _map_workers(build, joined, threads)
    power = [m for m in metrics if m.is_power_law]
    non_power = [m for m in metrics if not m.is_power_law]
    groups = {
        "power_law": _group_stats(power),
        "non_power_law": _group_stats(non_power),
        "all": _group_stats(metrics),
    }
    return CorrelationReport(
        groups=groups,
        pages_analyzed=len(metrics),
        pages_dropped=dropped,
        ks_threshold=ks_threshold,
    )
