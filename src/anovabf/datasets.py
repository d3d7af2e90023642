"""Balanced ANOVA datasets and CSV ingestion.

Observations are held as dense arrays indexed by factor level (and
replicate), so downstream sums of squares are plain axis reductions.
Both layouts are read column by column: text with no quote, CR or NUL,
a matching header and exactly ``width - 1`` commas on every line is cut
into blocks of about 1 MiB, each block is split once, and each column is
a stride of its fields. Large plain text is cut at newlines into ranges
of at least 4 MiB, one per CPU at most, which forked processes code in
parallel; the ranges are merged in file order, so the levels and array
are those of one range. Any other text (quoting, CRLF, blank lines, a
bad field count or value) is read row by row by ``csv.reader``, whose
errors name the line. Both passes code labels the same way and share one
balance check, so both give the same levels and array. Level labels are
arbitrary strings, stripped of surrounding whitespace, and internal
indices follow first appearance in the input, which is harmless because
every statistic computed from these datasets is label-invariant. Both
dataset classes share one frozen base, whose validator checks them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from ._parallel import map_parts, part_count
from .errors import BalanceError, DegenerateDesignError, DomainError, ParseError

ONE_WAY_HEADER = ("level", "value")
TWO_WAY_HEADER = ("a", "b", "value")

# Characters of CSV text coded per step of the columnar pass, and rows per
# step of the row-by-row pass; a step's intermediate lists take a few times
# this text in memory.
_BLOCK_CHARS = 1 << 20
_BLOCK_ROWS = 1 << 15
# Fewest characters of CSV text given to one process of the columnar pass:
# a fork and the transfer of a range's result cost a few milliseconds.
_FORK_CHARS = 1 << 22


def _freeze(dataset) -> None:
    """Check that values form a finite (levels..., replicates) array, at least
    2 in every dimension, with one label per level ("1", "2", ... by
    default) in each label field, the fields after ``values``; store a
    read-only copy."""
    label_fields = [f.name for f in dataclasses.fields(dataset)[1:]]
    values = np.array(dataset.values, dtype=float)
    if values.ndim != len(label_fields) + 1:
        raise DegenerateDesignError(f"need a (levels..., replicates) array, got {values.shape}")
    *sizes, r = values.shape
    if min(sizes) < 2:
        raise DegenerateDesignError(f"need at least 2 levels per factor, got shape {values.shape}")
    if r < 2:
        raise DegenerateDesignError(f"need at least 2 replications per cell, got {r}")
    if not np.isfinite(values).all():
        raise DomainError("all observations must be finite")
    for name, size in zip(label_fields, sizes):
        labels = getattr(dataset, name) or tuple([str(i) for i in range(1, size + 1)])
        if len(labels) != size:
            raise DomainError(f"{len(labels)} labels in {name} for {size} levels")
        object.__setattr__(dataset, name, labels)
    values.flags.writeable = False
    object.__setattr__(dataset, "values", values)


@dataclasses.dataclass(frozen=True)
class _Dataset:
    """Balanced layout: ``values`` indexed by each factor's level, then by replicate."""

    values: np.ndarray

    def __post_init__(self):
        _freeze(self)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[-1]

    @property
    def n(self) -> int:
        return self.values.size


@dataclasses.dataclass(frozen=True)
class OneWayDataset(_Dataset):
    """Balanced one-way layout: ``values[i, j]`` is replicate j of level i."""

    levels: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class TwoWayDataset(_Dataset):
    """Balanced two-way layout: ``values[i, j, k]`` is replicate k of cell (i, j)."""

    a_levels: tuple[str, ...] = ()
    b_levels: tuple[str, ...] = ()

    @property
    def q(self) -> int:
        return self.values.shape[1]


class _Columns:
    """Rows coded column by column: label codes per factor and the values.

    Each factor's levels are its stripped labels in first-appearance order;
    a label's code is its level's position.
    """

    def __init__(self, factors: int):
        self.levels: list[dict[str, int]] = [{} for _ in range(factors)]
        self._written: list[dict[str, int]] = [{} for _ in range(factors)]
        self.codes = [array("q") for _ in range(factors)]
        self.values = array("d")

    def add(self, labels: list[Sequence[str]], values: Iterable) -> None:
        """Append rows given as one label column per factor and a value column.

        Raises ValueError if a value is not a number.
        """
        self.values.extend(map(float, values))
        for level, written, codes, column in zip(self.levels, self._written, self.codes, labels):
            for label in dict.fromkeys(column):
                if label not in written:
                    written[label] = level.setdefault(label.strip(), len(level))
            codes.extend(map(written.__getitem__, column))

    def wire(self) -> tuple[list[list[str]], list[bytes], bytes]:
        """Each factor's levels in order, the codes and the values: what
        ``merge`` takes, in a form ``marshal`` can send."""
        levels = [list(level) for level in self.levels]
        return levels, [codes.tobytes() for codes in self.codes], self.values.tobytes()

    def merge(self, levels: list[list[str]], codes: list[bytes], values: bytes) -> None:
        """Append the rows of another ``_Columns`` given in ``wire`` form.

        Its labels take this one's codes, or the next free codes in its
        order of first appearance, so the merge codes as if its rows had
        been added here.
        """
        self.values.frombytes(values)
        for level, own, labels, coded in zip(self.levels, self.codes, levels, codes):
            remap = np.array([level.setdefault(label, len(level)) for label in labels], dtype=np.int64)
            own.frombytes(remap[np.frombuffer(coded, dtype=np.int64)].tobytes())

    def balanced(self) -> tuple[list, np.ndarray]:
        """Each factor's levels and the dense ``(levels..., replicates)`` array."""
        n = len(self.values)
        if not n:
            raise ParseError("no data rows")
        levels = [tuple(level) for level in self.levels]
        sizes = tuple(map(len, levels))
        cells = math.prod(sizes)
        cell = np.ravel_multi_index([np.frombuffer(c, dtype=np.int64) for c in self.codes], sizes)
        # more cells than rows cannot balance, and would make bincount's output huge
        counts = np.bincount(cell, minlength=cells) if cells <= n else None
        if counts is None or counts.min() != counts.max():
            raise _balance_error(levels, sizes, cell)
        # rows grouped by cell, in row order within a cell: a stable sort by
        # cell, as least-significant-digit passes over 16-bit digits, each a
        # stable argsort of uint16, which numpy does by radix sort in linear time
        order = np.argsort((cell & 0xFFFF).astype(np.uint16), kind="stable")
        for shift in range(16, (cells - 1).bit_length(), 16):
            digit = (cell[order] >> shift & 0xFFFF).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
        return levels, np.frombuffer(self.values)[order].reshape(*sizes, n // cells)


def _balance_error(levels: list[tuple[str, ...]], sizes: tuple[int, ...], cell) -> BalanceError:
    """Name the first cells, in the order of the levels' cross, off the common count."""
    present, first, counts = np.unique(cell, return_index=True, return_counts=True)
    # the most frequent count, a tie going to the count of the cell that appears first
    r = Counter(counts[np.argsort(first)].tolist()).most_common(1)[0][0]
    off = counts != r
    grid = math.prod(sizes)
    bad = grid - len(present) + int(np.count_nonzero(off))
    head = np.arange(min(grid, len(present) + 5))
    missing = np.setdiff1d(head, present, assume_unique=True)[:5].tolist()
    short = zip(present[off][:5].tolist(), counts[off][:5].tolist())
    shown = [
        f"{','.join(map(tuple.__getitem__, levels, np.unravel_index(index, sizes)))!r} has {count}"
        for index, count in sorted([*((index, 0) for index in missing), *short])[:5]
    ]
    return BalanceError(
        f"unbalanced design: {bad} of {grid} cells lack the common "
        f"replicate count {r}: {', '.join(shown)}{', ...' if bad > 5 else ''}"
    )


def _code_range(text: str, start: int, stop: int, width: int):
    """The ``wire`` form of the coding of ``text[start:stop]``, or None.

    The lines are coded about ``_BLOCK_CHARS`` at a time: each block, cut
    at a newline, is split once and each column taken as a stride of the
    fields. Returns None on a line without exactly ``width - 1`` commas,
    a line of more bytes than the csv field size limit, or a value that
    is not a finite number.
    """
    limit = csv.field_size_limit()
    separators = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    columns = _Columns(width - 1)
    while start < stop:
        end = text.find("\n", min(start + _BLOCK_CHARS, stop), stop)
        end = stop if end < 0 else end
        block = text[start:end]
        # no byte of a multi-byte UTF-8 sequence is a comma or a newline
        raw = np.frombuffer((block + "\n").encode("utf-8", "surrogatepass"), dtype=np.uint8)
        at = np.flatnonzero((raw == separators[0]) | (raw == separators[-1]))
        if len(at) % width or not (raw[at].reshape(-1, width) == separators).all():
            return None
        if np.diff(at[width - 1 :: width], prepend=-1).max() > limit + 1:
            return None
        fields = block.replace("\n", ",").split(",")
        try:
            columns.add([fields[i::width] for i in range(width - 1)], fields[width - 1 :: width])
        except ValueError:
            return None
        start = end + 1
    return columns.wire() if np.isfinite(columns.values).all() else None


def _read_blocks(text: str, header: tuple[str, ...]) -> _Columns | None:
    """Columnar pass over text that needs no CSV quoting rules.

    Cuts the rows at newlines into one range per CPU, each of at least
    ``_FORK_CHARS``, or a single range. Forked children code all ranges
    but the first, which this process codes (see ``_parallel``); the
    ranges' results are then merged in file order. Returns None, leaving
    the text to the row-by-row pass, on a quote, CR or NUL, a header that
    does not match, or a range that ``_code_range`` refuses.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    width = len(header)
    start = text.find("\n") + 1 or len(text)
    if tuple(h.strip().lower() for h in text[:start].rstrip("\n").split(",")) != header:
        return None
    stop = len(text) - text.endswith("\n")
    k = part_count(stop - start, _FORK_CHARS)
    starts = [start]
    for i in range(1, k):
        end = text.find("\n", max(starts[-1], start + (stop - start) * i // k), stop)
        starts.append(stop + 1 if end < 0 else end + 1)
    stops = [later - 1 for later in starts[1:]] + [stop]
    parts = map_parts(_code_range, [(text, *ends, width) for ends in zip(starts, stops)])
    if None in parts:
        return None
    columns = _Columns(width - 1)
    for part in parts:
        columns.merge(*part)
    return columns


def _read_rows(text: str, header: tuple[str, ...]) -> _Columns:
    """Line-by-line ``csv.reader`` pass over any text; errors name the line."""
    reader = csv.reader(io.StringIO(text))
    width, isfinite = len(header), math.isfinite
    columns = _Columns(width - 1)
    labels: list[list[str]] = [[] for _ in range(width - 1)]
    values: list[float] = []
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError("empty input")
        if tuple(h.strip().lower() for h in first) != header:
            raise ParseError(f"expected header {','.join(header)!r}, got {','.join(first)!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
            try:
                value = float(row[-1])
            except ValueError:
                value = math.nan
            if not isfinite(value):
                raise ParseError(f"line {lineno}: expected a finite number, got {row[-1].strip()!r}")
            values.append(value)
            for column, label in zip(labels, row):
                column.append(label)
            if len(values) == _BLOCK_ROWS:
                columns.add(labels, values)
                labels, values = [[] for _ in range(width - 1)], []
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    columns.add(labels, values)
    return columns


def _parse_balanced(text: str, header: tuple[str, ...]) -> tuple[list, np.ndarray]:
    """Read label columns then a value column into a dense balanced array.

    Returns each factor's levels in first-appearance order and the
    ``(levels per factor..., replicates)`` array, with each cell's values
    in row order. Every cell of the full cross of observed levels must
    carry the same number of replicates. Plain text takes the columnar
    pass; anything it does not accept is read again row by row, which
    gives the same result or names the line at fault.
    """
    text = text.removeprefix("\ufeff")  # the byte-order mark of "CSV UTF-8" files
    return (_read_blocks(text, header) or _read_rows(text, header)).balanced()


def parse_one_way(text: str) -> OneWayDataset:
    """Parse ``level,value`` CSV content into a balanced one-way dataset.

    Unequal per-level counts raise :class:`BalanceError`; a single level or
    a single replicate raises :class:`DegenerateDesignError`.
    """
    (levels,), values = _parse_balanced(text, ONE_WAY_HEADER)
    return OneWayDataset(values=values, levels=levels)


def parse_two_way(text: str) -> TwoWayDataset:
    """Parse ``a,b,value`` CSV content into a balanced two-way dataset.

    A missing or short cell of the full cross of observed labels raises
    :class:`BalanceError`.
    """
    (a_levels, b_levels), values = _parse_balanced(text, TWO_WAY_HEADER)
    return TwoWayDataset(values=values, a_levels=a_levels, b_levels=b_levels)
