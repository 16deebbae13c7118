"""Event ingestion, windowing, saturation, correlation, and pipelines."""

import csv
import io
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermolens import (
    Collection,
    DegenerateError,
    DomainError,
    EnergyModel,
    correlate_pages,
    evolution_report,
    monthly_collections,
    page_collections,
    page_reports,
    parse_events,
    pearson,
    read_readership_csv,
    saturation_filter,
    thermo_report,
)
from thermolens import collection, powerlaw, structure
from thermolens.analytics import MAX_TIMESTAMP, PageTimeline, saturated_pages
from helpers import (
    corpus_event_count,
    corpus_lines,
    event_table,
    month_start,
    planted_pages,
    table_rows,
)

JAN = month_start(2021, 1)
FEB = month_start(2021, 2)


def ev(ts, editor, page="p"):
    return (ts, editor, page)


class TestParseEvents:
    def test_header_only(self):
        parsed = parse_events(["ts,editor,page"])
        assert len(parsed.events) == 0 and parsed.skipped == 0

    def test_well_formed_rows(self):
        parsed = parse_events(["ts,editor,page", "1,a,p1", "2,b,p1", "3,a,p2"])
        assert len(parsed.events) == 3
        assert parsed.skipped == 0
        assert table_rows(parsed.events)[0] == (1, "a", "p1")

    def test_lenient_mode_skips_and_tallies(self):
        lines = ["ts,editor,page"]
        lines += [f"{i},e{i},p" for i in range(99)]
        lines.insert(50, "not-a-number,x,p")
        parsed = parse_events(lines)
        assert len(parsed.events) == 99
        assert parsed.skipped == 1

    def test_strict_mode_fails_fast(self):
        with pytest.raises(DomainError, match="line 3"):
            parse_events(["ts,editor,page", "1,a,p", "oops"], strict=True)
        # Comment lines count: the bad row is physical line 5.
        with pytest.raises(DomainError, match="^line 5:"):
            parse_events(["# a", "ts,editor,page", "# b", "1,a,p", "oops"], strict=True)

    @pytest.mark.parametrize(
        "row", ["1,a", "1,a,p,extra", "1,,p", "1,a,", "-5,a,p", "nan,a,p"]
    )
    def test_malformed_shapes(self, row):
        parsed = parse_events(["ts,editor,page", row])
        assert len(parsed.events) == 0 and parsed.skipped == 1

    def test_header_required(self):
        with pytest.raises(DomainError, match="header"):
            parse_events(["1,a,p"])
        with pytest.raises(DomainError):
            parse_events([])

    def test_comments_and_float_timestamps(self):
        parsed = parse_events(["# note", "ts,editor,page", "12.0,a,p"])
        assert table_rows(parsed.events) == [(12, "a", "p")]

    def test_strict_mode_lines_of_rows_rejected_after_the_pass(self):
        # Empty ids and bad timestamps are found after the pass over the rows;
        # the line is still the bad row's physical line, comments included.
        for bad in ("2, ,p", "-5,a,p", "1e300,a,p", "x,a,p"):
            with pytest.raises(DomainError, match="^line 4:"):
                parse_events(["ts,editor,page", "# c", "1,a,p", bad, "3,b,q"], strict=True)
        # ...and the first bad row wins over a later row of the wrong arity.
        with pytest.raises(DomainError, match="^line 3:"):
            parse_events(["ts,editor,page", "1,a,p", "2,,p", "oops"], strict=True)

    @pytest.mark.parametrize("column", ["editor", "ts"])
    @pytest.mark.parametrize("size", [100_000, 1_000_000])
    def test_one_long_cell(self, column, size):
        # No array may be as wide as the longest cell times the row count: a
        # fixed-width one would need rows x cell width x 4 bytes (40 GB and more
        # here), while the parse peaks near 16 MiB.
        lines = ["ts,editor,page"]
        lines += [f"{1_600_000_000 + i},e{i % 977},p{i % 31}" for i in range(100_000)]
        cell = ("7" if column == "ts" else "x") * size
        lines.insert(5_000, f"{cell},e1,p1" if column == "ts" else f"1600000000,{cell},p1")
        tracemalloc.start()
        try:
            parsed = parse_events(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # A cell over the csv module's field limit (131072) makes its row malformed;
        # a long timestamp is out of range, a long editor id an editor like any other.
        kept = column == "editor" and size <= csv.field_size_limit()
        assert parsed.skipped == (0 if kept else 1)
        assert len(parsed.events) == 100_000 + kept


def _reference_parse(lines: list[str], strict: bool = False):
    """The rules of parse_events restated row by row on the csv module.

    A line starting with '#' (after blanks) is a comment only where a record
    would start, that is, where the reader has finished every line it was
    given. A row's line is the physical line of its last line.
    """
    physical = row_end = 0

    def data():
        nonlocal physical
        for number, line in enumerate(lines, start=1):
            if reader.line_num == row_end and line.lstrip().startswith("#"):
                continue
            physical = number
            yield line

    reader = csv.reader(data())
    next(reader)  # the header
    row_end = reader.line_num
    events, skipped = [], 0
    for row in reader:
        row_end = reader.line_num
        if not row:
            continue
        event = _reference_event(row)
        if event is not None:
            events.append(event)
        elif strict:
            raise DomainError(f"line {physical}: malformed event row {row!r}")
        else:
            skipped += 1
    return events, skipped


def _reference_event(row: list[str]):
    if len(row) != 3:
        return None
    raw_ts, editor, page = row[0], row[1].strip(), row[2].strip()
    if not editor or not page:
        return None
    try:
        ts = int(raw_ts)
    except ValueError:
        try:
            value = float(raw_ts)
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        ts = int(value)
    return (ts, editor, page) if 0 <= ts <= 253_402_300_799 else None


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_TS_CELLS = st.one_of(
    st.integers(-10, 300_000_000_000).map(str),
    st.integers(0, 10**20).map(lambda n: str(n).zfill(12)),
    st.integers(0, 10**6).map(lambda n: f"{n:_}"),
    st.integers(-5, 10**6).map(lambda n: f"{n:+d}"),
    st.floats().map(repr),
    st.integers(0, 10**6).map(lambda n: str(n).translate(_ARABIC_INDIC)),
    st.integers(0, 10**6).map(lambda n: f" {n}\t"),
    st.text(max_size=4),
)
_IDS = st.text(alphabet='ab,"# \t\u00e9\n', max_size=4)
_ROWS = st.one_of(
    st.tuples(_TS_CELLS, _IDS, _IDS).map(list),
    st.lists(st.text(alphabet="1a,", max_size=3), min_size=1, max_size=5).filter(
        lambda row: len(row) != 3
    ),
    st.sampled_from(["# note", "  # indented, note", "", "   ", "\t"]),
)


def _render(items: list[tuple[list[str] | str, str]]) -> list[str]:
    """The header and the items (a row or a raw line, and its line ending) as
    CSV text, split into lines as a file opened with newline="" is."""
    out = io.StringIO()
    out.write("# leading comment\nts,editor,page\n")
    for item, ending in items:
        if isinstance(item, str):
            out.write(item + ending)
        else:
            csv.writer(out, lineterminator=ending).writerow(item)
    return list(io.StringIO(out.getvalue(), newline=""))


def _assert_matches_reference(lines: list[str], strict: bool) -> None:
    try:
        want = _reference_parse(lines, strict)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            parse_events(lines, strict)
        assert str(got.value) == str(exc)
        return
    parsed = parse_events(lines, strict)
    assert (table_rows(parsed.events), parsed.skipped) == want


class TestParserMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.tuples(_ROWS, st.sampled_from(["\n", "\r\n"])), max_size=12),
        st.booleans(),
    )
    def test_rows_skips_and_strict_lines(self, items, strict):
        _assert_matches_reference(_render(items), strict)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.tuples(_ROWS, st.sampled_from(["\n", "\r\n"])), max_size=12),
        st.booleans(),
        st.integers(1, 4),
    )
    def test_short_blocks(self, items, strict, block_lines):
        # Blocks of a few lines put a block boundary at every kind of line
        # and record boundary, with and without a '#' on either side.
        with mock.patch.object(collection, "_BLOCK_LINES", block_lines):
            _assert_matches_reference(_render(items), strict)


class TestMonthlyCollections:
    def test_single_editor_single_month(self):
        events = [ev(JAN + i, "a") for i in range(5)]
        assert monthly_collections(event_table(events)) == {"2021-01": Collection({5: 1})}

    def test_membership_is_per_month(self):
        events = [ev(JAN, "a"), ev(JAN + 1, "a"), ev(JAN + 2, "a")]
        events += [ev(FEB, "a"), ev(FEB + 1, "a")]
        monthly = monthly_collections(event_table(events))
        assert monthly == {
            "2021-01": Collection({3: 1}),
            "2021-02": Collection({2: 1}),
        }

    def test_two_editors_histogram(self):
        events = [ev(JAN, "a")] + [ev(JAN + i, "b") for i in range(10)]
        assert monthly_collections(event_table(events))["2021-01"] == Collection({1: 1, 10: 1})

    def test_months_sorted(self):
        events = [ev(FEB, "x"), ev(JAN, "y")]
        assert list(monthly_collections(event_table(events))) == ["2021-01", "2021-02"]


class TestPageCollections:
    def test_single_page(self):
        events = [ev(JAN + i, "a", "p1") for i in range(4)]
        assert page_collections(event_table(events)) == {"p1": Collection({4: 1})}

    def test_editor_counted_per_page(self):
        events = [ev(JAN, "a", "p1"), ev(JAN + 1, "a", "p2"), ev(JAN + 2, "a", "p2")]
        pages = page_collections(event_table(events))
        assert pages["p1"] == Collection({1: 1})
        assert pages["p2"] == Collection({2: 1})

    def test_three_editor_fixture(self):
        events = [ev(JAN, "a", "p"), ev(JAN, "b", "p"), ev(JAN + 9, "b", "p")]
        events += [ev(FEB, "c", "p"), ev(FEB + 1, "c", "p")]
        assert page_collections(event_table(events))["p"] == Collection({1: 1, 2: 2})


class TestSaturationFilter:
    def test_everything_in_first_half(self):
        t = PageTimeline("p", tuple(range(5000)))
        assert saturation_filter(t, horizon_end=1_000_000)

    def test_ten_percent_in_tail_is_not_saturated(self):
        stamps = tuple(sorted(list(range(4500)) + list(range(90_000, 90_500))))
        t = PageTimeline("p", stamps)
        assert not saturation_filter(t, horizon_end=100_000)

    def test_below_min_edits(self):
        t = PageTimeline("p", tuple(range(4499)))
        assert not saturation_filter(t, horizon_end=1_000_000)
        assert saturation_filter(t, horizon_end=1_000_000, min_edits=4499)

    def test_horizon_before_creation(self):
        t = PageTimeline("p", (1000, 2000))
        with pytest.raises(DomainError):
            saturation_filter(t, horizon_end=500)

    @pytest.mark.parametrize(
        "horizon", [-1, MAX_TIMESTAMP + 1, 10**400], ids=["negative", "year-10000", "401-digits"]
    )
    def test_horizon_outside_timestamp_domain(self, horizon):
        t = PageTimeline("p", (1000, 2000))
        with pytest.raises(DomainError, match="outside"):
            saturation_filter(t, horizon_end=horizon, min_edits=1)
        with pytest.raises(DomainError, match="outside"):
            saturated_pages(event_table([]), horizon_end=horizon)

    def test_monotone_in_growth_frac(self):
        stamps = tuple(sorted(list(range(4700)) + list(range(95_000, 95_300))))
        t = PageTimeline("p", stamps)
        flags = [
            saturation_filter(t, 100_000, growth_frac=g)
            for g in (0.01, 0.05, 0.0601, 0.07, 0.2)
        ]
        # Once saturated, relaxing the threshold keeps it saturated.
        assert flags == sorted(flags)
        assert flags[-1] is True


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == 1.0

    def test_sign_flip(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance(self):
        with pytest.raises(DegenerateError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_and_short(self):
        with pytest.raises(DomainError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(DomainError):
            pearson([1], [2])

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            xs = rng.normal(size=50).tolist()
            ys = (0.3 * np.asarray(xs) + rng.normal(size=50)).tolist()
            mx = sum(xs) / len(xs)
            my = sum(ys) / len(ys)
            num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            den = math.sqrt(
                sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
            )
            assert pearson(xs, ys) == pytest.approx(num / den, abs=1e-12)


class TestEvolutionReport:
    def test_composed_single_month(self):
        rows = evolution_report({"2021-01": Collection({1: 2, 2: 2})})
        (row,) = rows
        assert row.month == "2021-01"
        assert row.report.entropy == pytest.approx(math.log(2))
        assert row.report.entropy_efficiency == pytest.approx(2.0)
        assert row.report.alpha == pytest.approx(1 + 2 / math.log(2), abs=1e-6)
        assert row.log_population == pytest.approx(math.log(4))
        assert row.report == thermo_report(Collection({1: 2, 2: 2}))

    def test_degenerate_months_keep_rows(self):
        rows = evolution_report(
            {"2021-01": Collection({1: 3}), "2021-02": Collection({5: 3})}
        )
        jan, feb = rows
        assert jan.report.entropy == 0.0
        assert jan.report.entropy_efficiency is None
        assert jan.report.alpha is None
        assert jan.report.free_energy is None
        assert feb.report.entropy_efficiency == 0.0
        assert feb.report.alpha is None

    def test_windowing_purity(self):
        jan_events = [ev(JAN + i, f"e{i % 7}") for i in range(40)]
        feb_events = [ev(FEB + i, f"f{i % 3}") for i in range(30)]
        combined = evolution_report(monthly_collections(event_table(jan_events + feb_events)))
        alone = evolution_report(monthly_collections(event_table(jan_events)))
        assert combined[0] == alone[0]

    def test_rows_are_month_ordered_reports(self):
        monthly = monthly_collections(
            event_table(
                [ev(FEB + i, f"f{i % 5}") for i in range(25)]
                + [ev(JAN + i, f"e{i % 11}") for i in range(60)]
            )
        )
        rows = evolution_report(monthly, EnergyModel.LINEAR)
        assert [row.month for row in rows] == ["2021-01", "2021-02"]
        for row in rows:
            assert row.report == thermo_report(monthly[row.month], EnergyModel.LINEAR)

    def test_csv_row_format(self):
        rows = evolution_report({"2021-01": Collection({1: 3})})
        cells = rows[0].to_csv_row().split(",")
        assert len(cells) == 10
        assert cells[0] == "2021-01"
        assert cells[6] == ""  # Q absent


class TestReadershipCsv:
    def test_reads_and_accumulates(self):
        text = "page,clicks\np1,5\np2,7\np1,3\n"
        assert read_readership_csv(io.StringIO(text)) == {"p1": 8, "p2": 7}

    def test_header_required(self):
        with pytest.raises(DomainError):
            read_readership_csv(io.StringIO("p1,5\n"))

    def test_bad_rows(self):
        with pytest.raises(DomainError):
            read_readership_csv(io.StringIO("page,clicks\np1,x\n"))
        with pytest.raises(DomainError):
            read_readership_csv(io.StringIO("page,clicks\np1,-3\n"))
        with pytest.raises(DomainError, match="^line 5:"):
            read_readership_csv(io.StringIO("# a\npage,clicks\n# b\np1,5\np1,x\n"))


def _ref_pearson(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    return num / den


class TestCorrelatePages:
    def test_identical_pages_have_absent_rho(self):
        pages = {"a": Collection({1: 2, 2: 2}), "b": Collection({1: 2, 2: 2})}
        report = correlate_pages(pages, {"a": 10, "b": 20})
        assert report.groups["all"].size == 2
        assert report.groups["all"].readership_rho["Q"] is None  # zero variance

    def test_three_page_fixture_matches_reference(self):
        pages = {
            "pa": Collection({1: 2, 2: 2}),
            "pb": Collection({1: 1, 2: 1, 4: 1, 8: 1}),
            "pc": Collection({1: 5, 3: 2}),
        }
        readership = {"pa": 100, "pb": 50, "pc": 10}
        report = correlate_pages(pages, readership)
        assert report.pages_analyzed == 3
        assert report.pages_dropped == 0
        g = report.groups["all"]
        assert g.size == 3
        # Independent route: metrics recomputed from their defining sums.
        expected = {}
        for name, c in pages.items():
            n = c.population
            s = math.log(n) - math.fsum(k * math.log(k) for k in c.counts.values()) / n
            e = math.fsum(cnt * math.log(v) for v, cnt in c.counts.items()) / n
            expected[name] = (s, s / e, c.value_sum)
        names = sorted(pages)
        reads = [float(readership[p]) for p in names]
        assert g.readership_rho["S"] == pytest.approx(
            _ref_pearson([expected[p][0] for p in names], reads), abs=1e-12
        )
        assert g.readership_rho["Q"] == pytest.approx(
            _ref_pearson([expected[p][1] for p in names], reads), abs=1e-12
        )
        assert g.readership_rho["total_edits"] == pytest.approx(
            _ref_pearson([float(expected[p][2]) for p in names], reads), abs=1e-12
        )
        assert g.edits_median == float(np.median([expected[p][2] for p in names]))

    def test_inner_join_drops_unmatched(self):
        pages = {"a": Collection({1: 1, 2: 1}), "b": Collection({1: 1, 2: 1})}
        report = correlate_pages(pages, {"a": 5})
        assert report.pages_analyzed == 1
        assert report.pages_dropped == 1

    def test_groups_partition_pages(self):
        pages = planted_pages(30, seed=60)
        readership = {p: 100 + i for i, p in enumerate(sorted(pages))}
        report = correlate_pages(pages, readership)
        sizes = report.groups
        assert sizes["power_law"].size + sizes["non_power_law"].size == sizes["all"].size
        assert sizes["all"].size == 30

    def test_planted_efficiency_signal_recovered(self):
        pages = planted_pages(60, seed=71)
        rng = np.random.default_rng(72)
        readership = {}
        qs = {}
        for name, c in sorted(pages.items()):
            n = c.population
            s = math.log(n) - math.fsum(k * math.log(k) for k in c.counts.values()) / n
            e = c.log_value_sum / n
            q = s / e
            qs[name] = q
            readership[name] = int(round(1000.0 * q * math.exp(0.1 * rng.normal())))
        report = correlate_pages(pages, readership)
        rho = report.groups["all"].readership_rho["Q"]
        assert rho is not None and rho > 0.6

    def test_json_shape(self):
        pages = {"a": Collection({1: 2, 2: 1}), "b": Collection({1: 1, 2: 2})}
        d = correlate_pages(pages, {"a": 1, "b": 9}).to_json_dict()
        assert set(d["groups"]) == {"power_law", "non_power_law", "all"}
        assert set(d["groups"]["all"]["readership_rho"]) == {
            "S", "R", "Q", "total_energy", "total_edits",
        }


class TestPageReports:
    def test_flags_and_metrics(self):
        events = [ev(JAN + i, f"e{i % 6}", "big") for i in range(60)]
        events += [ev(JAN + 50_000_000 + i, "x", "small") for i in range(3)]
        rows = page_reports(event_table(events), min_edits=50)
        by_page = {r.page_id: r for r in rows}
        assert by_page["big"].total_edits == 60
        assert by_page["big"].saturated  # all edits long before the horizon
        assert not by_page["small"].saturated  # below min_edits
        assert by_page["small"].report.population == 1
        assert by_page["small"].alpha is None  # degenerate page
        assert by_page["small"].is_power_law is False

    def test_empty_corpus(self):
        assert page_reports(event_table([])) == []

    def test_conservation_on_synthetic_corpus(self):
        lines = corpus_lines(
            [(2021, 1, 2.2, 200), (2021, 2, 2.2, 150)], seed=5, n_pages=7
        )
        parsed = parse_events(lines, strict=True)
        assert parsed.skipped == 0
        total = corpus_event_count(lines)
        assert len(parsed.events) == total
        monthly = monthly_collections(parsed.events)
        assert sum(c.value_sum for c in monthly.values()) == total
        pages = page_collections(parsed.events)
        assert sum(c.value_sum for c in pages.values()) == total


class TestKernelCallCounts:
    """Each page fits at most once and evaluates the zeta kernel once, for its KS
    distance; months do neither twice."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("mle_fit", "zeta", "classify", "_hurwitz"):
            counted(powerlaw, name)
        counted(structure, "class_decompose")
        return counts

    def test_page_reports(self, calls):
        lines = corpus_lines([(2021, 1, 2.0, 150), (2021, 2, 2.4, 120)], seed=9, n_pages=8)
        calls.clear()  # sampling the corpus runs the kernel too
        rows = page_reports(parse_events(lines, strict=True).events)
        assert len(rows) == 8
        fitted = sum(row.ks_stat is not None for row in rows)
        assert 0 < calls["mle_fit"] <= 8 and fitted > 0
        assert calls["_hurwitz"] == fitted

    def test_correlate_pages(self, calls):
        pages = planted_pages(12, seed=4)
        calls.clear()
        report = correlate_pages(pages, {p: 10 + i for i, p in enumerate(pages)})
        assert report.pages_analyzed == 12
        assert 0 < calls["mle_fit"] <= 12 and calls["_hurwitz"] == 12

    def test_evolution_report_neither_classifies_nor_decomposes(self, calls):
        lines = corpus_lines([(2021, 1, 2.0, 150), (2021, 2, 2.4, 120)], seed=9, n_pages=8)
        calls.clear()  # sampling the corpus runs the kernel and zeta too
        rows = evolution_report(monthly_collections(parse_events(lines, strict=True).events))
        assert len(rows) == 2
        for row in rows:
            row.to_csv_row()  # A, and with it zeta, is evaluated when first read
        assert calls["classify"] == 0 and calls["class_decompose"] == 0
        assert calls["mle_fit"] == 2 and calls["zeta"] == 2
