"""Balanced ANOVA datasets and CSV ingestion.

Observations are held as dense arrays indexed by factor level (and
replicate), so downstream sums of squares are plain axis reductions.
Both layouts are read column by column. Text with no quote, CR or NUL,
a matching header and exactly ``width - 1`` commas on every line is cut
into blocks of about 1 MiB; each block is encoded to UTF-8 once, and the
byte positions of its commas and newlines give every field's span. Each
label column is coded from its bytes in numpy by ``_code_labels``, which
packs the fields into 64-bit keys and groups them with one sort, so a
Python string is made per distinct label of a block, not per label
field; the value fields alone are cut out as strings and read by
``float``. Large plain text is cut at newlines into ranges of at least
4 MiB, one per CPU at most, which forked processes code in parallel; the
ranges are merged in file order, so the levels and array are those of
one range. This columnar pass refuses a line without exactly
``width - 1`` commas, a line of more bytes than the csv field size
limit, and a value that ``float`` refuses or that is not finite. Such
text, and text with quoting, CRLF or blank lines, is read row by row by
``csv.reader``, whose errors name the line. The row pass joins each
label column of a batch of rows into one buffer for the same coder, and
both passes share one balance check, so both give the same levels and
array. Level labels are arbitrary strings, stripped of surrounding
whitespace, and internal indices follow first appearance in the input,
which is harmless because every statistic computed from these datasets
is label-invariant. Both dataset classes share one frozen base, whose
validator checks them.
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
# step of the row-by-row pass; a step's intermediate arrays and lists take a
# few times this text in memory.
_BLOCK_CHARS = 1 << 20
_BLOCK_ROWS = 1 << 15
# Fewest characters of CSV text given to one process of the columnar pass:
# a fork and the transfer of a range's result cost a few milliseconds.
_FORK_CHARS = 1 << 22
# the bytes of a little-endian word below each length from 0 to 7
_LOW_BYTES = np.array([(1 << 8 * length) - 1 for length in range(8)], dtype=np.uint64)
# the odd multiplier of the hash of a wide field's words: 2**64 over the golden ratio
_HASH_FACTOR = np.uint64(0x9E3779B97F4A7C15)


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
    a label's code is its level's position. This is the one place where a
    raw label becomes a level: rows arrive in batches, each factor's
    labels as the batch's distinct raw labels in first-appearance order
    (from ``_code_labels``) with each row's index into them, so a label is
    stripped and looked up once per batch, not once per row.
    """

    def __init__(self, factors: int):
        self.levels: list[dict[str, int]] = [{} for _ in range(factors)]
        self.codes = [array("q") for _ in range(factors)]
        self.values = array("d")

    def add(self, labels: Iterable[tuple[Sequence[str], np.ndarray]], values: bytes) -> None:
        """Append rows given per factor as distinct raw labels in
        first-appearance order and each row's index into them, and the
        rows' values as the bytes of doubles."""
        self.values.frombytes(values)
        for level, codes, (distinct, index) in zip(self.levels, self.codes, labels):
            remap = [level.setdefault(label.strip(), len(level)) for label in distinct]
            codes.frombytes(np.array(remap, dtype=np.int64)[index].tobytes())

    def wire(self) -> tuple[list[list[str]], list[bytes], bytes]:
        """Each factor's levels in order, the codes and the values: what
        ``merge`` takes, in a form ``marshal`` can send."""
        levels = [list(level) for level in self.levels]
        return levels, [codes.tobytes() for codes in self.codes], self.values.tobytes()

    def merge(self, levels: list[list[str]], codes: list[bytes], values: bytes) -> None:
        """Append the rows of another ``_Columns`` given in ``wire`` form.

        Its levels, stripped and in order of first appearance, are its
        rows' distinct labels, so they take this one's codes, or the next
        free codes in that order, as if its rows had been added here.
        """
        self.add(zip(levels, (np.frombuffer(coded, dtype=np.int64) for coded in codes)), values)

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


def _field_keys(raw: bytes, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """A 64-bit key for each field ``raw[begins[i]:ends[i]]``: fields with
    equal keys have equal bytes, and fields with equal bytes have equal
    keys unless a 64-bit hash collides.

    A field of up to 7 bytes is keyed by its bytes, read as a
    little-endian word padded with zeros, with its length in the top byte,
    so it has no collision. The wider fields of each length are read as
    ``ceil(length / 8)`` such words each, the last one ending where the
    field ends, sorted by a hash of their words, and keyed by their run of
    equal neighbours in that order, with the top bit set: two fields whose
    hashes collide can split one label's fields into two keys, never join
    two labels in one. Memory stays linear in ``raw``: no array holds the
    widest field's words for every field.
    """
    data = np.frombuffer(raw + bytes(8), dtype=np.uint8)
    # the word of the 8 bytes from each offset of raw
    words = np.ndarray((len(raw) + 1,), dtype="<u8", buffer=data, strides=(1,))
    lengths = ends - begins
    keys = words[begins]
    keys &= _LOW_BYTES[np.minimum(lengths, 7)]
    keys |= lengths.astype(np.uint64) << np.uint64(56)
    wide = np.flatnonzero(lengths > 7)
    wide = wide[np.argsort(lengths[wide])]
    group = 1 << 63
    for rows in np.split(wide, np.flatnonzero(np.diff(lengths[wide])) + 1) if len(wide) else ():
        length = int(lengths[rows[0]])
        # a column of words per field, the last word ending where the field ends
        table = words[np.append(np.arange(0, length - 8, 8), length - 8)[:, None] + begins[rows]]
        # a polynomial hash of each column's words, wrapping at 2**64
        order = np.argsort(np.cumprod(np.full(len(table), _HASH_FACTOR)) @ table)
        # C order, unlike table[:, order], keeps the compare below fast
        table = np.take(table, order, axis=1)
        new = np.ones(len(order), dtype=bool)
        new[1:] = (table[:, 1:] != table[:, :-1]).any(axis=0)
        keys[rows[order]] = np.cumsum(new, dtype=np.uint64) + np.uint64(group - 1)
        group += int(np.count_nonzero(new))
    return keys


def _code_labels(raw: bytes, begins: np.ndarray, ends: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct fields ``raw[begins[i]:ends[i]]`` of UTF-8 text, decoded
    in order of first appearance, and each field's index into them.

    One sort of the fields' keys (``_field_keys``) brings equal fields
    together, so a Python object is made per distinct key, not per field.
    Only a hash collision between wide fields gives one field two keys,
    and so two places in the list, which ``_Columns.add`` gives one level.
    """
    keys = _field_keys(raw, begins, ends)
    order = np.argsort(keys)
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    appearance = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[appearance] = np.arange(len(first))
    index = np.empty(len(order), dtype=np.int64)
    index[order] = np.repeat(rank, np.diff(starts, append=len(order)))
    first = first[appearance]
    spans = zip(begins[first].tolist(), ends[first].tolist())
    return [raw[b:e].decode("utf-8", "surrogatepass") for b, e in spans], index


def _code_range(text: str, start: int, stop: int, width: int):
    """The ``wire`` form of the coding of ``text[start:stop]``, or None.

    The lines are coded about ``_BLOCK_CHARS`` at a time. Each block, cut
    at a newline, is encoded to UTF-8 once, and the positions of its
    commas and newlines give every field's byte span: the label columns
    are coded from their bytes by ``_code_labels``, and only the value
    fields are cut out as strings, each read by ``float``. Returns None
    on a line without exactly ``width - 1`` commas, a line of more bytes
    than the csv field size limit, or a value that ``float`` refuses or
    that is not finite.
    """
    limit = csv.field_size_limit()
    separators = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    columns = _Columns(width - 1)
    while start < stop:
        end = text.find("\n", min(start + _BLOCK_CHARS, stop), stop)
        end = stop if end < 0 else end
        # no byte of a multi-byte UTF-8 sequence is a comma or a newline
        encoded = (text[start:end] + "\n").encode("utf-8", "surrogatepass")
        raw = np.frombuffer(encoded, dtype=np.uint8)
        at = np.flatnonzero((raw == separators[0]) | (raw == separators[-1]))
        if len(at) % width or not (raw[at].reshape(-1, width) == separators).all():
            return None
        if np.diff(at[width - 1 :: width], prepend=-1).max() > limit + 1:
            return None
        # each field runs from one past the separator before it to its own
        ends = at.reshape(-1, width)
        begins = np.append(0, at[:-1] + 1).reshape(-1, width)
        labels = [_code_labels(encoded, begins[:, i], ends[:, i]) for i in range(width - 1)]
        # the bytes of each row's value field and its newline, without its labels
        runs = np.diff(begins[:, :: width - 1].ravel(), append=len(raw))
        kept = raw[np.repeat(np.tile([False, True], len(ends)), runs)]
        fields = kept.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]
        try:
            columns.add(labels, array("d", map(float, fields)).tobytes())
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
    values = array("d")

    def coded(column: list[str]) -> tuple[list[str], np.ndarray]:
        # the column's labels joined into one buffer, coded as the columnar pass codes them
        sizes = (len(label.encode("utf-8", "surrogatepass")) for label in column)
        lengths = np.fromiter(sizes, dtype=np.int64, count=len(column))
        ends = np.cumsum(lengths)
        return _code_labels("".join(column).encode("utf-8", "surrogatepass"), ends - lengths, ends)

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
                columns.add(map(coded, labels), values.tobytes())
                labels, values = [[] for _ in range(width - 1)], array("d")
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    columns.add(map(coded, labels), values.tobytes())
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
