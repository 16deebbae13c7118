"""Value histograms ("collections") of positive integer contributions.

A collection maps each observed value v (e.g. a per-editor edit count) to
the number of individuals holding that value. All metrics in this package
are functions of this histogram, never of individual identities. The
module also holds the CSV plumbing every reader and output row shares.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
from typing import IO, ClassVar, Iterator

import numpy as np

from .errors import DomainError, EmptyCollectionError

__all__ = [
    "Collection",
    "Distribution",
    "EnergyModel",
    "from_values",
    "merge",
    "probabilities",
    "read_collection_csv",
    "write_collection_csv",
]

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Collection:
    """Immutable histogram: value -> count of individuals holding it.

    Keys must be integers >= 1 and counts integers >= 1. The population is
    the sum of the counts. An empty collection is representable but every
    metric operation rejects it.
    """

    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        frozen = {}
        for v, s in self.counts.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DomainError(f"non-positive contribution value: {v!r}")
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise DomainError(f"invalid count {s!r} for value {v}")
            frozen[v] = s
        object.__setattr__(self, "counts", frozen)

    @cached_property
    def population(self) -> int:
        """Total number of individuals (sum of all counts)."""
        return sum(self.counts.values())

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Observed values, ascending."""
        return tuple(sorted(self.counts))

    @property
    def min_value(self) -> int:
        if not self.counts:
            raise EmptyCollectionError("empty collection has no minimum value")
        return self.support[0]

    @cached_property
    def value_sum(self) -> int:
        """Sum of all contribution values, Σ v·s_v (exact integer)."""
        return sum(v * s for v, s in self.counts.items())

    @cached_property
    def log_value_sum(self) -> float:
        """Σ s_v·ln(v), accumulated in ascending value order.

        This single sum backs both the logarithmic average energy and the
        power-law exponent estimator, so the identity alpha = 1 + 1/E holds
        at float precision rather than merely approximately.
        """
        return math.fsum(s * math.log(v) for v, s in sorted(self.counts.items()))

    def __len__(self) -> int:
        return len(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability view of a collection: value -> fraction of individuals.

    Two aligned arrays, ascending int64 `values` and float64 `p`, copied
    on construction and read-only; the `probs` mapping and the `support`
    tuple are built on first read. Instances compare by identity.
    """

    values: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        try:
            values = np.array(self.values, dtype=np.int64)
        except OverflowError:
            raise DomainError("values must fit in a signed 64-bit integer") from None
        p = np.array(self.p, dtype=np.float64)
        if values.ndim != 1 or values.shape != p.shape:
            raise DomainError(f"values and p must be aligned 1-D arrays: {values.shape}, {p.shape}")
        if (np.diff(values) <= 0).any():
            raise DomainError("values must be strictly ascending")
        bad = np.flatnonzero(~((p > 0.0) & (p <= 1.0)))
        if bad.size:
            i = bad[0]
            raise DomainError(f"probability out of (0, 1] for value {values[i]}: {p[i]}")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        values.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "p", p)

    @cached_property
    def probs(self) -> dict[int, float]:
        """value -> probability, ascending by value."""
        return dict(zip(self.values.tolist(), self.p.tolist()))

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Values, ascending."""
        return tuple(self.values.tolist())


_BLOCK_LINES = 4096


class CsvRows:
    """Rows of a CSV text stream whose first row is a fixed header.

    A line whose first non-blank character is ``#`` is a comment where a
    record would start; inside a quoted field it is data. Blank rows are
    skipped. The header is checked on construction; iterating yields the
    data rows, and ``line`` is the physical line number of the last line of
    the row last yielded. A row the csv module cannot read (a field over
    its size limit) comes out as the one-cell row ``[reason]``, which every
    reader rejects by its arity.

    One csv reader reads the lines in blocks and records where each row
    ends. Only a block holding a ``#`` is fed line by line, so a comment is
    dropped only while the reader is between records.
    """

    def __init__(self, lines: Iterable[str], header: tuple[str, ...], kind: str) -> None:
        self._skipped = 0  # comment lines the reader never saw
        self._row_end = 0  # the reader's line_num after its last row
        self._reader = csv.reader(chain.from_iterable(self._blocks(lines)))
        self._rows = self._read()
        expected = ",".join(header)
        first = next(self._rows, None)
        if first is None:
            raise DomainError(f"{kind} CSV is empty (missing '{expected}' header)")
        if tuple(h.strip() for h in first) != header:
            raise DomainError(f"expected header '{expected}', got {','.join(first)!r}")

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    def _blocks(self, lines: Iterable[str]) -> Iterator[Iterable[str]]:
        lines = iter(lines)
        while block := list(islice(lines, _BLOCK_LINES)):
            yield self._uncommented(block) if "#" in "".join(block) else block

    def _uncommented(self, block: list[str]) -> Iterator[str]:
        reader = self._reader
        for line in block:
            if reader.line_num == self._row_end and line.lstrip().startswith("#"):
                self._skipped += 1
            else:
                yield line

    def _read(self) -> Iterator[list[str]]:
        reader = self._reader
        while True:
            try:
                for row in reader:
                    self._row_end = reader.line_num
                    if row:
                        yield row
                return
            except csv.Error as exc:  # the reader resumes on the next line
                self._row_end = reader.line_num
                yield [str(exc)]

    @property
    def line(self) -> int:
        return self._skipped + self._reader.line_num


def format_cell(x) -> str:
    """One CSV cell: None is blank, a bool is true/false, a float is .12g."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


class Row:
    """An output row serialized through one ``(header, attribute)`` table.

    A subclass sets COLUMNS, whose attributes may be dotted paths into a
    nested row; its CSV_HEADER, to_csv_row and to_json_dict all follow
    from that one table, in its order.
    """

    COLUMNS: ClassVar[tuple[tuple[str, str], ...]] = ()
    CSV_HEADER: ClassVar[str] = ""
    _getters: ClassVar[dict[str, attrgetter]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.CSV_HEADER = ",".join(name for name, _ in cls.COLUMNS)
        cls._getters = {name: attrgetter(attr) for name, attr in cls.COLUMNS}

    def column(self, name: str):
        """The value under the given column header."""
        return self._getters[name](self)

    def to_csv_row(self) -> str:
        return ",".join(format_cell(get(self)) for get in self._getters.values())

    def to_json_dict(self) -> dict:
        return {name: get(self) for name, get in self._getters.items()}


class EnergyModel(Enum):
    """Mapping from a contribution value to the energy it represents.

    LOGARITHMIC (u = ln v) is the default everywhere: marginal effort per
    additional contribution shrinks with experience. LINEAR (u = v) treats
    every contribution as equally costly.
    """

    LOGARITHMIC = "logarithmic"
    LINEAR = "linear"

    def energy(self, value: int | float) -> float:
        if value < 1:
            raise DomainError(f"energy undefined for value {value!r}")
        if self is EnergyModel.LOGARITHMIC:
            return math.log(value)
        return float(value)


def from_values(values: Iterable[int]) -> Collection:
    """Build a collection from raw per-individual values.

    Every value must be an integer >= 1; fractional contribution measures
    must be quantized by the caller first.
    """
    tally: Counter[int] = Counter()
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise DomainError(f"non-positive contribution value: {v!r}")
        tally[v] += 1
    return Collection(dict(tally))


def merge(a: Collection, b: Collection) -> Collection:
    """Pointwise sum of two histograms; populations add."""
    merged = Counter(a.counts)
    merged.update(b.counts)
    return Collection(dict(merged))


def probabilities(c: Collection) -> Distribution:
    """Empirical distribution p_v = s_v / N."""
    if not c:
        raise EmptyCollectionError("cannot normalize an empty collection")
    n = c.population
    return Distribution(np.array(c.support), np.array([c.counts[v] / n for v in c.support]))


def write_collection_csv(c: Collection, stream: IO[str], header_comment: str | None = None) -> None:
    """Write the interchange CSV: header ``value,count``, rows ascending."""
    if header_comment:
        stream.write(f"# {header_comment}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["value", "count"])
    for v in sorted(c.counts):
        writer.writerow([v, c.counts[v]])


def read_collection_csv(stream: Iterable[str]) -> Collection:
    """Read the ``value,count`` interchange CSV; ``#`` lines are comments."""
    rows = CsvRows(stream, ("value", "count"), "collection")
    tally: Counter[int] = Counter()
    for row in rows:
        if len(row) != 2:
            raise DomainError(f"line {rows.line}: expected 2 fields, got {len(row)}")
        try:
            v, s = int(row[0]), int(row[1])
        except ValueError:
            raise DomainError(f"line {rows.line}: non-integer field in {row!r}") from None
        if s < 0:
            raise DomainError(f"line {rows.line}: negative count {s}")
        if s:
            tally[v] += s
    return Collection(dict(tally))
