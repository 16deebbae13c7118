"""Edit-log analytics: ingestion, windowing, page selection, correlation.

The pipeline turns a flat event log (timestamp, editor, page) into monthly
editor collections and per-page editor collections, computes the metric
bundle for each, filters pages whose editing history has saturated, and
correlates page metrics against an external readership signal.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import powerlaw, thermo
from .collection import Collection, CsvRows, EnergyModel, Row
from .errors import DegenerateError, DomainError

__all__ = [
    "EventTable",
    "ParseResult",
    "PageTimeline",
    "PageMetrics",
    "EvolutionRow",
    "GroupCorrelations",
    "CorrelationReport",
    "parse_events",
    "monthly_collections",
    "page_collections",
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

# Timestamps are epoch seconds from 1970-01-01 to 9999-12-31T23:59:59 UTC.
MAX_TIMESTAMP = 253_402_300_799
# A cell of at most this many decimal digits always fits an int64.
_PLAIN_DIGITS = 18


@dataclass(frozen=True, eq=False)
class EventTable:
    """Edits as columns: ``ts`` holds int64 UTC epoch seconds, ``editor`` and
    ``page`` integer codes into the id tuples ``editors`` and ``pages``, which
    hold each id that some event uses."""

    ts: np.ndarray
    editor: np.ndarray
    page: np.ndarray
    editors: tuple[str, ...]
    pages: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class ParseResult:
    events: EventTable
    skipped: int


def parse_events(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse a ``ts,editor,page`` CSV stream into an event table.

    Rows with the wrong arity, a field over the csv module's size limit,
    an id that is empty after stripping, or a timestamp that is not a
    number in [0, MAX_TIMESTAMP] are skipped and tallied in lenient mode;
    in strict mode the first such row raises DomainError. Lines starting
    with ``#`` are comments. The header row is mandatory. Ids are interned
    in the one pass over the rows; ids and timestamps are checked after it.
    """
    rows = CsvRows(lines, EVENT_HEADER, "event")
    editor_ids: dict[str, int] = {}  # raw id -> code, in order of first appearance
    page_ids: dict[str, int] = {}
    cells: list[str] = []
    editor_codes: list[int] = []
    page_codes: list[int] = []
    data_lines: list[int] = []  # strict mode only: the line of each row
    skipped = 0  # rows of the wrong arity
    error = None  # strict mode: the row that stopped the pass
    for row in rows:
        if len(row) == 3:
            raw_ts, editor, page = row
            cells.append(raw_ts)
            editor_codes.append(editor_ids.setdefault(editor, len(editor_ids)))
            page_codes.append(page_ids.setdefault(page, len(page_ids)))
            if strict:
                data_lines.append(rows.line)
        else:
            if strict:
                error = f"line {rows.line}: malformed event row {row!r}"
                break
            skipped += 1

    ts = _timestamps(cells)
    editors, editor = _intern(editor_ids, editor_codes)
    pages, page = _intern(page_ids, page_codes)
    keep = (ts >= 0) & (editor >= 0) & (page >= 0)
    if strict and not keep.all():  # this row comes before any that stopped the pass
        i = int(np.argmin(keep))
        row = [cells[i], list(editor_ids)[editor_codes[i]], list(page_ids)[page_codes[i]]]
        error = f"line {data_lines[i]}: malformed event row {row!r}"
    if error is not None:
        raise DomainError(error)
    if not keep.all():
        ts = ts[keep]
        editors, editor = _compact(editors, editor[keep])
        pages, page = _compact(pages, page[keep])
    table = EventTable(ts, editor, page, tuple(editors), tuple(pages))
    return ParseResult(events=table, skipped=skipped + len(cells) - len(ts))


def _timestamps(cells: list[str]) -> np.ndarray:
    """Epoch seconds of each cell; -1 where the cell is no timestamp in range.

    Cells of 1 to _PLAIN_DIGITS ASCII digits are read in bulk from one array
    of all the cells' characters, a digit position at a time; the other
    cells go through _scalar_timestamp.
    """
    lengths = np.fromiter(map(len, cells), np.intp, len(cells))
    # One byte per character: "?" stands in for a non-ASCII one, so its cell is not plain.
    chars = np.frombuffer("".join(cells).encode("ascii", "replace"), np.uint8)
    starts = np.cumsum(lengths) - lengths
    ts = np.full(len(cells), -1, dtype=np.int64)
    for width in np.unique(lengths[(lengths > 0) & (lengths <= _PLAIN_DIGITS)]).tolist():
        rows = np.flatnonzero(lengths == width)
        pos, value, plain = starts[rows], np.zeros(len(rows), np.int64), np.ones(len(rows), bool)
        for _ in range(width):
            digit = chars[pos] - np.uint8(48)  # a non-digit wraps past 9
            plain &= digit <= 9
            value = value * 10 + digit
            pos += 1
        ts[rows[plain]] = value[plain]
    other = np.flatnonzero(ts < 0)
    ts[other] = [_scalar_timestamp(cells[i]) for i in other.tolist()]
    ts[ts > MAX_TIMESTAMP] = -1
    return ts


def _scalar_timestamp(cell: str) -> int:
    """int(), else float() truncated toward zero; -1 if neither or out of range."""
    try:
        ts = int(cell)
    except ValueError:
        try:
            ts = int(float(cell))
        except (ValueError, OverflowError):  # not a number, nan, or infinite
            return -1
    return ts if 0 <= ts <= MAX_TIMESTAMP else -1


def _intern(ids: dict[str, int], codes: list[int]) -> tuple[list[str], np.ndarray]:
    """The distinct stripped ids, and each row's code into them.

    ``ids`` maps each raw id to its code in ``codes``. Raw ids equal after
    stripping merge; a row whose id strips to nothing gets code -1.
    """
    index = {"": -1}  # stripped id -> code, in order of first appearance
    per_id = [index.setdefault(name, len(index) - 1) for name in map(str.strip, ids)]
    return list(index)[1:], np.array(per_id, dtype=np.intp)[codes]


def _compact(names: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Drop the names no code refers to, renumbering the codes to match."""
    used = np.bincount(codes, minlength=len(names)) > 0
    return list(compress(names, used.tolist())), np.cumsum(used)[codes] - 1


def _histograms(group: np.ndarray, editor: np.ndarray) -> tuple[list[int], list[Collection]]:
    """Group keys, ascending, and each group's histogram of per-editor edit counts."""
    span = int(editor.max(initial=0)) + 1
    pairs, edits = np.unique(group.astype(np.int64) * span + editor, return_counts=True)
    top = int(edits.max(initial=0)) + 1
    bins, holders = np.unique(pairs // span * top + edits, return_counts=True)
    keys = bins // top
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    bounds, values, holders = [*starts.tolist(), len(bins)], (bins % top).tolist(), holders.tolist()
    hists = [Collection(dict(zip(values[a:b], holders[a:b]))) for a, b in zip(bounds, bounds[1:])]
    return keys[starts].tolist(), hists


def monthly_collections(events: EventTable) -> dict[str, Collection]:
    """Histogram of per-editor edit counts for each UTC calendar month.

    Membership is per month: an editor active in two months contributes an
    individual to each month's collection independently.
    """
    months = events.ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    keys, hists = _histograms(months, events.editor)
    return dict(zip(np.datetime_as_string(np.array(keys, dtype="datetime64[M]")).tolist(), hists))


def page_collections(events: EventTable) -> dict[str, Collection]:
    """Histogram of per-editor total edit counts for each page, ordered by page id."""
    keys, hists = _histograms(events.page, events.editor)
    return dict(sorted(zip((events.pages[k] for k in keys), hists)))


@dataclass(frozen=True)
class PageTimeline:
    """Edit timestamps of one page, ascending; index + 1 is the running count."""

    page_id: str
    timestamps: Sequence[int]

    def edits_since(self, ts: float) -> int:
        """Number of edits at or after the given time."""
        return len(self.timestamps) - int(np.searchsorted(self.timestamps, ts))


def _check_horizon(horizon_end: int) -> None:
    if not 0 <= horizon_end <= MAX_TIMESTAMP:
        raise DomainError(f"horizon {horizon_end} outside [0, {MAX_TIMESTAMP}]")


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
    analysis horizon must stay below growth_frac of its total. The horizon
    lies in the timestamp domain [0, MAX_TIMESTAMP].
    """
    _check_horizon(horizon_end)
    total = len(timeline.timestamps)
    if not total:
        raise DomainError("timeline is empty")
    creation = int(timeline.timestamps[0])
    if horizon_end < creation:
        raise DomainError(f"horizon {horizon_end} precedes page creation {creation}")
    if total < min_edits:
        return False
    tail_start = horizon_end - tail_frac * (horizon_end - creation)
    return timeline.edits_since(tail_start) < growth_frac * total


def saturated_pages(
    events: EventTable,
    horizon_end: int | None = None,
    min_edits: int = DEFAULT_MIN_EDITS,
    tail_frac: float = DEFAULT_TAIL_FRAC,
    growth_frac: float = DEFAULT_GROWTH_FRAC,
) -> set[str]:
    """Ids of the pages that pass saturation_filter at the horizon.

    The horizon defaults to the last event timestamp in the corpus; an
    empty corpus has no pages, saturated or not. Each timeline is a slice
    of the events sorted by page, then time. Pages go in id order, so a
    horizon before several pages' creation names the first of them. A
    horizon outside [0, MAX_TIMESTAMP] is rejected, also on an empty corpus.
    """
    horizon = horizon_end if horizon_end is not None else int(events.ts.max(initial=0))
    _check_horizon(horizon)
    order = np.lexsort((events.ts, events.page))
    page = events.page[order]
    starts = np.flatnonzero(np.diff(page, prepend=-1))
    names = [events.pages[k] for k in page[starts].tolist()]
    timelines = sorted(zip(names, np.split(events.ts[order], starts[1:])), key=itemgetter(0))
    return {
        name
        for name, stamps in timelines
        if saturation_filter(PageTimeline(name, stamps), horizon, min_edits, tail_frac, growth_frac)
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
    events: EventTable,
    horizon_end: int | None = None,
    min_edits: int = DEFAULT_MIN_EDITS,
    tail_frac: float = DEFAULT_TAIL_FRAC,
    growth_frac: float = DEFAULT_GROWTH_FRAC,
    model: EnergyModel = EnergyModel.LOGARITHMIC,
    ks_threshold: float = powerlaw.DEFAULT_KS_THRESHOLD,
) -> list[PageMetrics]:
    """Per-page metrics with saturation and power-law classification flags.

    The saturation horizon defaults to the last event timestamp in the
    corpus.
    """
    saturated = saturated_pages(events, horizon_end, min_edits, tail_frac, growth_frac)
    return [
        _page_metrics(page_id, coll, model, ks_threshold, page_id in saturated)
        for page_id, coll in page_collections(events).items()
    ]


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
) -> CorrelationReport:
    """Classify pages and correlate their metrics with readership.

    The readership join is inner: pages without a readership record are
    dropped and tallied. Unfittable (zero-spread) pages count as
    non-power-law so the two groups partition the analyzed set. Pages with
    an absent metric are skipped for that metric's correlations only.
    """
    joined = sorted(p for p in pages if p in readership)
    dropped = len(pages) - len(joined)

    metrics = [
        _page_metrics(p, pages[p], model, ks_threshold, readership=readership[p])
        for p in joined
    ]
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
