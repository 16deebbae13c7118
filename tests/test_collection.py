"""Histogram construction, merging, probability views, and CSV interchange."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest

from thermolens import (
    Collection,
    Distribution,
    DomainError,
    EmptyCollectionError,
    from_values,
    merge,
    probabilities,
    read_collection_csv,
    write_collection_csv,
)
from thermolens import collection
from thermolens.collection import CsvRows


class TestFromValues:
    def test_empty_input_is_representable(self):
        c = from_values([])
        assert c.counts == {}
        assert c.population == 0
        assert not c

    def test_multiplicity_count(self):
        c = from_values([1, 1, 2, 2])
        assert c.counts == {1: 2, 2: 2}
        assert c.population == 4

    def test_hand_tally(self):
        c = from_values([1, 1, 2, 4])
        assert c.counts == {1: 2, 2: 1, 4: 1}
        assert c.population == 4

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(DomainError, match="non-positive"):
            from_values([1, bad, 2])

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            from_values([1, 2.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = [int(v) for v in rng.integers(1, 50, size=200)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert from_values(values) == from_values(shuffled)


class TestCollectionInvariants:
    def test_rejects_bad_value_key(self):
        with pytest.raises(DomainError):
            Collection({0: 3})

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            Collection({2: 0})

    def test_population_is_count_sum(self):
        c = Collection({1: 3, 7: 2, 9: 5})
        assert c.population == 10

    def test_derived_sums(self):
        c = Collection({1: 2, 2: 1, 4: 1})
        assert c.value_sum == 2 + 2 + 4
        assert c.log_value_sum == pytest.approx(math.log(2) + math.log(4))
        assert c.min_value == 1
        assert c.support == (1, 2, 4)

    def test_min_value_of_empty_raises(self):
        with pytest.raises(EmptyCollectionError):
            from_values([]).min_value


class TestMerge:
    def test_identity_element(self):
        x = from_values([1, 3, 3, 9])
        assert merge(x, from_values([])) == x
        assert merge(from_values([]), x) == x

    def test_pointwise_sum(self):
        assert merge(Collection({1: 2}), Collection({1: 3})).counts == {1: 5}

    def test_hand_tally(self):
        m = merge(Collection({1: 1, 2: 1}), Collection({2: 1, 4: 1}))
        assert m.counts == {1: 1, 2: 2, 4: 1}
        assert m.population == 4

    def test_support_union(self):
        rng = np.random.default_rng(3)
        a = from_values([int(v) for v in rng.integers(1, 30, size=50)])
        b = from_values([int(v) for v in rng.integers(20, 60, size=50)])
        assert set(merge(a, b).support) == set(a.support) | set(b.support)


class TestProbabilities:
    def test_single_value(self):
        assert probabilities(Collection({1: 4})).probs == {1: 1.0}

    def test_symmetric_split(self):
        assert probabilities(Collection({1: 2, 2: 2})).probs == {1: 0.5, 2: 0.5}

    def test_hand_division(self):
        p = probabilities(Collection({1: 2, 2: 1, 4: 1})).probs
        assert p == {1: 0.5, 2: 0.25, 4: 0.25}

    def test_empty_rejected(self):
        with pytest.raises(EmptyCollectionError):
            probabilities(from_values([]))

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = from_values([int(v) for v in rng.integers(1, 100, size=64)])
            assert math.fsum(probabilities(c).probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_count_scaling(self):
        c = Collection({1: 2, 3: 5, 9: 1})
        for k in (2, 3, 10):
            scaled = Collection({v: k * s for v, s in c.counts.items()})
            assert probabilities(scaled).probs == probabilities(c).probs


class TestDistribution:
    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.5, math.nan])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DomainError, match=rf"for value 7: {bad}$"):
            Distribution(np.array([2, 7, 9]), np.array([0.5, bad, 0.5]))

    def test_sum_off_one_rejected(self):
        Distribution(np.array([1, 2]), np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(DomainError, match="sum to"):
            Distribution(np.array([1, 2]), np.array([0.5, 0.5 + 2e-12]))
        with pytest.raises(DomainError, match="sum to"):
            Distribution(np.array([1, 2]), np.array([0.5, 0.5 - 2e-12]))

    def test_values_strictly_ascending_and_aligned(self):
        with pytest.raises(DomainError, match="ascending"):
            Distribution(np.array([2, 1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="ascending"):
            Distribution(np.array([1, 1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="aligned"):
            Distribution(np.array([1, 2, 3]), np.array([0.5, 0.5]))

    def test_views_match_arrays(self):
        dist = probabilities(Collection({9: 1, 1: 2, 4: 1}))
        assert dist.values.dtype == np.int64 and dist.p.dtype == np.float64
        assert dist.values.tolist() == [1, 4, 9]
        assert dist.p.tolist() == [0.5, 0.25, 0.25]
        assert dist.support == (1, 4, 9)
        assert list(dist.probs.items()) == list(zip(dist.support, dist.p.tolist()))
        assert all(type(v) is int and type(p) is float for v, p in dist.probs.items())

    def test_arrays_are_read_only_and_equality_is_identity(self):
        values, p = np.array([1, 2]), np.array([0.25, 0.75])
        dist = Distribution(values, p)
        with pytest.raises(ValueError):
            dist.p[0] = 0.5
        p[0] = 0.5  # the caller's array is a separate copy
        assert dist.p.tolist() == [0.25, 0.75]
        assert dist != Distribution(values, np.array([0.25, 0.75]))

    def test_values_beyond_int64_rejected(self):
        with pytest.raises(DomainError, match="64-bit"):
            probabilities(Collection({1: 1, 2**64: 1}))


class TestCsvInterchange:
    def test_round_trip_sorted_ascending(self):
        c = Collection({10: 1, 2: 5, 7: 3})
        buf = io.StringIO()
        write_collection_csv(c, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "value,count"
        assert text.splitlines()[1:] == ["2,5", "7,3", "10,1"]
        assert read_collection_csv(io.StringIO(text)) == c

    def test_comment_lines_skipped(self):
        text = "# produced by a tool\nvalue,count\n1,2\n# trailing note\n3,4\n"
        c = read_collection_csv(io.StringIO(text))
        assert c.counts == {1: 2, 3: 4}

    def test_missing_header_rejected(self):
        with pytest.raises(DomainError, match="header"):
            read_collection_csv(io.StringIO("1,2\n"))

    def test_malformed_row_rejected(self):
        with pytest.raises(DomainError):
            read_collection_csv(io.StringIO("value,count\n1,2,3\n"))
        with pytest.raises(DomainError):
            read_collection_csv(io.StringIO("value,count\na,2\n"))
        with pytest.raises(DomainError, match="^line 5:"):
            read_collection_csv(io.StringIO("# a\nvalue,count\n# b\n1,2\n1,2,3\n"))


class TestCsvRows:
    def test_hash_line_inside_a_quoted_field_is_data(self):
        lines = ["ts,editor,page\n", '1,"a\n', '#b",p\n', "2,c,p\n"]
        rows = CsvRows(lines, ("ts", "editor", "page"), "event")
        got = []
        for row in rows:
            got.append((row, rows.line))
        assert got == [(["1", "a\n#b", "p"], 3), (["2", "c", "p"], 4)]
        assert got == [(r, i) for r, i in zip(csv.reader(lines[1:]), (3, 4))]

    def test_hash_line_at_a_record_start_is_a_comment(self):
        lines = ["# a\n", "ts,editor,page\n", '1,"x",p\n', "  # b\n", "\n", "# c\n", "2,c,p\n"]
        rows = CsvRows(lines, ("ts", "editor", "page"), "event")
        got = [(row, rows.line) for row in rows]
        assert got == [(["1", "x", "p"], 3), (["2", "c", "p"], 7)]

    @pytest.mark.parametrize("block_lines", [1, 2, 3, 4096])
    def test_quoted_field_across_blocks(self, block_lines):
        # Block boundaries fall inside the quoted field, where '# data' is data.
        lines = [
            "ts,editor,page\n", '1,"a\n', "plain\n", "# data\n", "\n", 'b",p\n',
            "# comment\n", "2,c,p\n", "3,d,p\n", '4,"e\n', 'f",p\n', "5,g,p\n",
        ]
        with mock.patch.object(collection, "_BLOCK_LINES", block_lines):
            rows = CsvRows(lines, ("ts", "editor", "page"), "event")
            got = [(row, rows.line) for row in rows]
        assert got == [
            (["1", "a\nplain\n# data\n\nb", "p"], 6),
            (["2", "c", "p"], 8),
            (["3", "d", "p"], 9),
            (["4", "e\nf", "p"], 11),
            (["5", "g", "p"], 12),
        ]

    def test_comment_after_an_unreadable_row(self):
        long_cell = "x" * (csv.field_size_limit() + 1)
        lines = ["ts,editor,page\n", f"1,{long_cell},p\n", "# comment\n", "2,c,p\n"]
        rows = CsvRows(lines, ("ts", "editor", "page"), "event")
        got = [(row, rows.line) for row in rows]
        assert [len(row) for row, _ in got] == [1, 3]
        assert "field larger than field limit" in got[0][0][0]
        assert got[1] == (["2", "c", "p"], 4)
