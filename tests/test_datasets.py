import csv
import os
import tracemalloc
from itertools import product

import numpy as np
import pytest

from anovabf import _parallel, datasets
from anovabf.cli import write_csv
from anovabf.datasets import (
    ONE_WAY_HEADER,
    TWO_WAY_HEADER,
    OneWayDataset,
    TwoWayDataset,
    parse_one_way,
    parse_two_way,
)
from anovabf.errors import (
    AnovaBFError,
    BalanceError,
    DegenerateDesignError,
    DomainError,
    ParseError,
)

ONE_WAY_SMALL = "level,value\na,1\na,1\nb,2\nb,2"

TWO_WAY_SMALL = "\n".join(
    ["a,b,value"]
    + [f"{a},{b},{v}" for a, b, v in [
        ("x", "u", 1), ("x", "u", 2),
        ("x", "v", 3), ("x", "v", 4),
        ("y", "u", 5), ("y", "u", 6),
        ("y", "v", 7), ("y", "v", 8),
    ]]
)

# 3x2 cells, r = 3, rows interleaved across cells; labels first appear
# out of sorted order (a2 before a1, b2 before b1)
TWO_WAY_SHUFFLED = (
    "a,b,value\n"
    "a2,b2,3.1\na1,b1,0.4\na3,b2,-1.2\na2,b1,2.2\na1,b2,1.7\na3,b1,0.9\n"
    "a1,b1,0.8\na3,b1,1.3\na2,b2,2.6\na1,b2,1.1\na3,b2,-0.7\na2,b1,2.9\n"
    "a3,b2,-1.5\na2,b1,2.0\na1,b2,1.4\na2,b2,3.3\na3,b1,0.5\na1,b1,0.1\n"
)


def shuffled_rows(cells, values, rng):
    """Wire rows of dense ``values`` whose cells carry the label tuples ``cells``.

    Replicate 0 of every cell comes first, in cell order, so labels first
    appear in dataset order; each later replicate layer follows in random
    cell order, so rows interleave across cells while each cell's own rows
    stay in replicate order.
    """
    flat = values.reshape(len(cells), -1)
    n = len(cells)
    layers = [rng.permutation(n) if j else range(n) for j in range(flat.shape[1])]
    return [[*cells[i], repr(float(flat[i, j]))] for j, order in enumerate(layers) for i in order]


class ParseCases:
    """Input errors and number formats, checked against each layout.

    Subclasses set ``parse``, its ``header`` line and ``labels``, the label
    tuple of each row of a balanced design with 2 replicates per cell.
    """

    def text(self, replace=None, header=None):
        """A CSV of ``labels`` with values 0, 1, ..., or ``replace[i]`` for row i."""
        values = [str(i) for i in range(len(self.labels))]
        for index, value in (replace or {}).items():
            values[index] = value
        rows = [",".join((*labels, value)) for labels, value in zip(self.labels, values)]
        return "\n".join([header or self.header, *rows])

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match=r"line 3\b"):
            self.parse(self.text({1: "oops"}))

    def test_non_finite_value(self):
        with pytest.raises(ParseError, match=r"line 3\b"):
            self.parse(self.text({1: "inf"}))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            self.parse(self.text(header=self.header.replace("value", "val")))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            self.parse("")

    def test_header_only(self):
        with pytest.raises(ParseError):
            self.parse(self.header + "\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match=r"line 2\b"):
            self.parse(self.text({0: "1,extra"}))

    def test_scientific_notation(self):
        raw = ["1e-3", "2E2", "-3.5e0", "4", "5.5E+1", "6e0", "-7E-2", "8"]
        expected = [1e-3, 200.0, -3.5, 4.0, 55.0, 6.0, -0.07, 8.0]
        n = len(self.labels)
        d = self.parse(self.text(dict(enumerate(raw[:n]))))
        np.testing.assert_allclose(d.values.ravel(), expected[:n])


class TestParseOneWay(ParseCases):
    parse = staticmethod(parse_one_way)
    header = "level,value"
    labels = [(a,) for a in "ab" for _ in range(2)]

    def test_direct_transcription(self):
        d = parse_one_way(ONE_WAY_SMALL)
        assert d.p == 2
        assert d.r == 2
        assert d.n == 4
        np.testing.assert_array_equal(d.values, [[1.0, 1.0], [2.0, 2.0]])

    def test_levels_in_first_appearance_order(self):
        d = parse_one_way("level,value\nz,1\nz,2\na,3\na,4\nm,5\nm,6")
        assert d.levels == ("z", "a", "m")

    def test_unbalanced_counts(self):
        with pytest.raises(BalanceError):
            parse_one_way("level,value\na,1\nb,2\nb,2")

    def test_single_level(self):
        with pytest.raises(DegenerateDesignError):
            parse_one_way("level,value\na,1\na,2")

    def test_single_replication(self):
        with pytest.raises(DegenerateDesignError):
            parse_one_way("level,value\na,1\nb,2")

    def test_row_order_insensitive(self):
        shuffled = "level,value\nb,2\na,1\nb,2\na,1"
        d1 = parse_one_way(ONE_WAY_SMALL)
        d2 = parse_one_way(shuffled)
        for label in ("a", "b"):
            row1 = sorted(d1.values[d1.levels.index(label)])
            row2 = sorted(d2.values[d2.levels.index(label)])
            assert row1 == row2

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        d = OneWayDataset(values=rng.normal(size=(4, 3)), levels=("a", "b", "c", "d"))
        rows = shuffled_rows([(label,) for label in d.levels], d.values, rng)
        d2 = parse_one_way(write_csv(ONE_WAY_HEADER, rows))
        assert d2.levels == d.levels
        np.testing.assert_array_equal(d2.values, d.values)


class TestParseTwoWay(ParseCases):
    parse = staticmethod(parse_two_way)
    header = "a,b,value"
    labels = [(a, b) for a in "xy" for b in "uv" for _ in range(2)]

    def test_full_cross(self):
        d = parse_two_way(TWO_WAY_SMALL)
        assert (d.p, d.q, d.r) == (2, 2, 2)
        assert d.n == 8
        np.testing.assert_array_equal(
            d.values, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        )

    def test_shuffled_rows_keep_first_appearance_and_row_order(self):
        d = parse_two_way(TWO_WAY_SHUFFLED)
        assert d.a_levels == ("a2", "a1", "a3")
        assert d.b_levels == ("b2", "b1")
        np.testing.assert_array_equal(
            d.values,
            [
                [[3.1, 2.6, 3.3], [2.2, 2.9, 2.0]],
                [[1.7, 1.1, 1.4], [0.4, 0.8, 0.1]],
                [[-1.2, -0.7, -1.5], [0.9, 1.3, 0.5]],
            ],
        )

    def test_missing_cell(self):
        rows = "a,b,value\nx,u,1\nx,u,2\nx,v,3\nx,v,4\ny,u,5\ny,u,6"
        with pytest.raises(BalanceError):
            parse_two_way(rows)

    def test_unequal_cell_counts(self):
        with pytest.raises(BalanceError):
            parse_two_way(TWO_WAY_SMALL + "\nx,u,9")

    # a 200x50 cross with 2 replicates per cell
    GRID = [f"a{i},b{j},{i + j + k}" for i in range(200) for j in range(50) for k in range(2)]

    def test_short_cell_error_is_short(self):
        rows = [row for row in self.GRID if row != "a12,b17,29"]
        with pytest.raises(BalanceError) as exc:
            parse_two_way("\n".join(["a,b,value", *rows]))
        message = str(exc.value)
        assert len(message.encode()) < 500
        assert "1 of 10000 cells" in message
        assert "replicate count 2" in message
        assert "'a12,b17' has 1" in message

    def test_balance_error_names_at_most_five_cells(self):
        rows = [row for row in self.GRID if not row.startswith("a0,")] + ["a0,b0,0"]
        with pytest.raises(BalanceError) as exc:
            parse_two_way("\n".join(["a,b,value", *rows]))
        message = str(exc.value)
        assert "50 of 10000 cells" in message
        assert message.count(" has ") == 5
        assert message.endswith(", ...")

    def test_single_replication(self):
        rows = "a,b,value\nx,u,1\nx,v,2\ny,u,3\ny,v,4"
        with pytest.raises(DegenerateDesignError):
            parse_two_way(rows)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(4)
        d = TwoWayDataset(values=rng.normal(size=(2, 3, 2)))
        rows = shuffled_rows(list(product(d.a_levels, d.b_levels)), d.values, rng)
        d2 = parse_two_way(write_csv(TWO_WAY_HEADER, rows))
        assert (d2.p, d2.q, d2.r) == (d.p, d.q, d.r)
        np.testing.assert_array_equal(d2.values, d.values)
        assert d2.a_levels == d.a_levels
        assert d2.b_levels == d.b_levels


def crlf(text):
    return text.replace("\n", "\r\n")


def quote_all(text):
    """Every field of every non-empty line in double quotes, as csv.QUOTE_ALL writes it."""
    return "\n".join(
        ",".join(f'"{field}"' for field in line.split(",")) if line else line
        for line in text.split("\n")
    )


def outcome(parse, text):
    """Levels and array bytes of a parse, or the type and text of its error."""
    try:
        d = parse(text)
    except AnovaBFError as exc:
        return type(exc).__name__, str(exc)
    levels = (d.levels,) if isinstance(d, OneWayDataset) else (d.a_levels, d.b_levels)
    return levels, d.values.tobytes()


def two_way_text(rows):
    return "a,b,value\n" + "".join(f"{row}\n" for row in rows)


# 3x2 cells, r = 2, rows interleaved across cells
CELL_ROWS = [
    "a2,b1,0.5", "a1,b2,-1.25", "a3,b1,2.0", "a1,b1,3.5", "a2,b2,0.125", "a3,b2,7.0",
    "a1,b1,1.5", "a3,b2,-2.0", "a2,b1,9.75", "a1,b2,4.0", "a3,b1,0.0625", "a2,b2,-3.5",
]
PADDED_ROWS = [f" {a} ,{b}  ,{v}" for a, b, v in (row.split(",") for row in CELL_ROWS)]
SEPARATOR_ROWS = [f"{a}\u2028x,{b},{v}" for a, b, v in (row.split(",") for row in CELL_ROWS)]


def relabel(rows, labels, pads=(("", ""),)):
    """``rows`` with their labels renamed through ``labels``; row i puts the
    pair ``pads[i % len(pads)]`` before and after its a label, and after
    and before its b label."""
    relabelled = []
    for i, row in enumerate(rows):
        a, b, v = row.split(",")
        before, after = pads[i % len(pads)]
        relabelled.append(f"{before}{labels.get(a, a)}{after},{after}{labels.get(b, b)}{before},{v}")
    return relabelled


# 9 to 40 bytes, each sharing its first 8 bytes with the others
SHARED_PREFIX = {
    "a1": "treatment_01", "a2": "treatment_02", "a3": "treatment_" + "0" * 30,
    "b1": "treatmen1", "b2": "treatmen2",
}
# 9 to 21 bytes; a surrogate escape is 3 bytes
MULTI_BYTE = {
    "a1": "\u03b1\u03b2\u03b3\u03b4\u03b5\u03b6", "a2": "\u65e5\u672c\u8a9e\u306e\u30e9\u30d9\u30eb",
    "a3": "\udc80\udc81\udc82x", "b1": "\u00e9" * 5, "b2": "\u00e9" * 4 + "e",
}
# padding that strip() removes: one label is the same number of bytes
# padded before or after, and different bytes
STRIP_PADS = (("", ""), (" ", ""), ("", " "), ("\t", "\u3000"))


def renamed(labels):
    """The levels of the cells a1 to a3 and b1, b2 in the order the rows
    first name them, renamed through ``labels``."""
    return tuple(labels.get(a, a) for a in ("a2", "a1", "a3")), tuple(labels.get(b, b) for b in ("b1", "b2"))

# text the columnar pass reads itself
REGULAR = {
    "interleaved": two_way_text(CELL_ROWS),
    "no-trailing-newline": two_way_text(CELL_ROWS).rstrip("\n"),
    "padded-labels": two_way_text(PADDED_ROWS),
    "line-separator-in-label": two_way_text(SEPARATOR_ROWS),
    "short-cell": two_way_text(CELL_ROWS[:-1]),
    # counts 2 and 3 tie as the most common; 3 belongs to the cell that appears first
    "tied-counts": two_way_text(
        f"{cell},{i}"
        for i, cell in enumerate(
            ["a1,b1", "a2,b2", "a1,b3", "a1,b2", "a2,b1", "a2,b3"]
            + ["a1,b1"] * 3 + ["a2,b2"] * 2 + ["a1,b3", "a1,b2"] + ["a2,b1"] * 2 + ["a2,b3"] * 4
        )
    ),
    "header-only": "a,b,value\n",
    "shared-prefix": two_way_text(relabel(CELL_ROWS, SHARED_PREFIX)),
    "multi-byte-wide": two_way_text(relabel(CELL_ROWS, MULTI_BYTE)),
    "stripped-equal": two_way_text(relabel(CELL_ROWS, SHARED_PREFIX, STRIP_PADS)),
    "stripped-equal-short": two_way_text(relabel(CELL_ROWS, {}, STRIP_PADS)),
    # a3 is empty, and blank once
    "empty-label": two_way_text(relabel(CELL_ROWS, {"a3": ""}, (("", ""), ("", ""), ("", " ")))),
}
# text that it leaves to the row reader
IRREGULAR = {
    "blank-lines": two_way_text(CELL_ROWS[:4] + [""] + CELL_ROWS[4:8] + ["   "] + CELL_ROWS[8:]),
    # the stray field makes the next line a valid row when fields are counted per block
    "extra-and-missing-comma": two_way_text(
        CELL_ROWS[:2] + ["a3,b1,2.0,a1", "b1,3.5"] + CELL_ROWS[4:]
    ),
    "bad-value": two_way_text(CELL_ROWS[:5] + ["a2,b2,oops"] + CELL_ROWS[6:]),
    "non-finite-value": two_way_text(CELL_ROWS[:5] + ["a2,b2,nan"] + CELL_ROWS[6:]),
    "nul-in-label": two_way_text(["a2\0,b1,0.5", *CELL_ROWS[1:]]),
    "field-over-limit": two_way_text(CELL_ROWS[:3] + ["a" * 131073 + ",b1,3.5"] + CELL_ROWS[4:]),
}


class TestColumnarAgreesWithRowReader:
    """The same content through the columnar pass and through ``csv.reader``.

    CRLF line ends and quoted fields each send text to the row reader.
    """

    @pytest.fixture(params=[1, 7, 12, 1 << 20], ids=lambda size: f"block-{size}")
    def block(self, request, monkeypatch):
        # small blocks cut the text inside and at the edges of rows, and code
        # the row reader's rows a few at a time
        monkeypatch.setattr(datasets, "_BLOCK_CHARS", request.param)
        monkeypatch.setattr(datasets, "_BLOCK_ROWS", request.param)

    @pytest.mark.parametrize("case", sorted(REGULAR.keys() | IRREGULAR.keys()))
    @pytest.mark.parametrize("forced", [crlf, quote_all], ids=["crlf", "quote-all"])
    def test_same_levels_array_and_errors(self, case, forced, block):
        text = {**REGULAR, **IRREGULAR}[case]
        assert outcome(parse_two_way, text) == outcome(parse_two_way, forced(text))

    @pytest.mark.parametrize("case", sorted(REGULAR))
    def test_plain_text_stays_columnar(self, case, block, monkeypatch):
        def refuse(text, header):
            raise AssertionError("fell back to the row reader")

        monkeypatch.setattr(datasets, "_read_rows", refuse)
        outcome(parse_two_way, REGULAR[case])

    def test_one_way_layout(self, block):
        text = "level,value\n" + "".join(f" L{i % 3} ,{i * 0.75}\n" for i in range(12))
        assert outcome(parse_one_way, text) == outcome(parse_one_way, crlf(text))
        assert parse_one_way(text).levels == ("L0", "L1", "L2")

    def test_expected_results(self):
        first = outcome(parse_two_way, REGULAR["interleaved"])
        assert first[0] == (("a2", "a1", "a3"), ("b1", "b2"))
        for case in ("no-trailing-newline", "padded-labels", "blank-lines"):
            assert outcome(parse_two_way, {**REGULAR, **IRREGULAR}[case]) == first
        levels, _ = outcome(parse_two_way, REGULAR["line-separator-in-label"])
        assert levels[0] == ("a2\u2028x", "a1\u2028x", "a3\u2028x")
        assert outcome(parse_two_way, IRREGULAR["extra-and-missing-comma"]) == (
            "ParseError",
            "line 4: expected 3 fields, got 4",
        )
        assert outcome(parse_two_way, IRREGULAR["bad-value"]) == (
            "ParseError",
            "line 7: expected a finite number, got 'oops'",
        )
        assert outcome(parse_two_way, IRREGULAR["field-over-limit"]) == (
            "ParseError",
            "line 5: field larger than field limit (131072)",
        )
        assert outcome(parse_two_way, REGULAR["short-cell"]) == (
            "BalanceError",
            "unbalanced design: 1 of 6 cells lack the common replicate count 2: 'a2,b2' has 1",
        )
        assert outcome(parse_two_way, REGULAR["tied-counts"]) == (
            "BalanceError",
            "unbalanced design: 4 of 6 cells lack the common replicate count 3: "
            "'a1,b1' has 4, 'a1,b2' has 2, 'a1,b3' has 2, 'a2,b3' has 5",
        )
        assert outcome(parse_two_way, REGULAR["header-only"]) == ("ParseError", "no data rows")
        wide = outcome(parse_two_way, REGULAR["shared-prefix"])
        assert wide == (renamed(SHARED_PREFIX), first[1])
        assert outcome(parse_two_way, REGULAR["stripped-equal"]) == wide
        assert outcome(parse_two_way, REGULAR["stripped-equal-short"]) == first
        assert outcome(parse_two_way, REGULAR["multi-byte-wide"]) == (renamed(MULTI_BYTE), first[1])
        assert outcome(parse_two_way, REGULAR["empty-label"]) == (renamed({"a3": ""}), first[1])


# 3x2 cells, r = 4, in rows of 10 characters, so that ranges of equal
# characters are ranges of equal rows: a2, a1 and b1 come first, b2 from
# row 8 and a3 from row 14, and the last two rows repeat earlier cells
RANGED_CELLS = (
    [("a2", "b1"), ("a1", "b1")] * 4
    + [("a1", "b2"), ("a2", "b2")] * 3
    + [("a3", "b2"), ("a3", "b1")] * 4
    + [("a1", "b2"), ("a2", "b2")]
)
RANGED_ROWS = [f"{a},{b},{i:02d}.5" for i, (a, b) in enumerate(RANGED_CELLS)]

# SHARED_PREFIX with labels short enough for the field size limit of 40
RANGED_PREFIX = {**SHARED_PREFIX, "a3": "treatment_" + "0" * 10}

# text cut into ranges, with what sets them apart in a later range; the
# field size limit is 40 while they are read
RANGED = {
    "late-labels": two_way_text(RANGED_ROWS),
    # " a2 " in the first range and "a2" in the others are one level
    "padded-then-plain": two_way_text(
        [f" {row.replace(',', ' ,', 1)}" if i < 8 else row for i, row in enumerate(RANGED_ROWS)]
    ),
    # a surrogate escape stands for a byte that is not UTF-8
    "non-ascii": two_way_text(
        row.replace("a2", "\u65e5\u672c").replace("a1", "\u03b11").replace("a3", "\udc80x")
        .replace("b1", "b\u00e9")
        for row in RANGED_ROWS
    ),
    "shared-prefix": two_way_text(relabel(RANGED_ROWS, RANGED_PREFIX)),
    "multi-byte-wide": two_way_text(relabel(RANGED_ROWS, MULTI_BYTE)),
    # wide labels padded before in the first range, after in the second
    "stripped-equal-wide": two_way_text(
        relabel(RANGED_ROWS[:8], RANGED_PREFIX, ((" ", ""),))
        + relabel(RANGED_ROWS[8:16], RANGED_PREFIX, (("", " "),))
        + relabel(RANGED_ROWS[16:], RANGED_PREFIX)
    ),
    "empty-label": two_way_text(relabel(RANGED_ROWS, {"a3": ""})),
    "short-cell-across-ranges": two_way_text(RANGED_ROWS[:-1]),
    "late-bad-value": two_way_text(RANGED_ROWS[:-2] + ["a1,b2,oops", RANGED_ROWS[-1]]),
    "late-comma-count": two_way_text(RANGED_ROWS[:-1] + [RANGED_ROWS[-1] + ",9"]),
    "late-long-line": two_way_text(RANGED_ROWS[:-2] + ["a1" + " " * 40 + ",b2,22.5", RANGED_ROWS[-1]]),
}


def refuse_rows(text, header):
    raise AssertionError("fell back to the row reader")


class TestRangesAgreeWithOneRange:
    """The columnar pass cut into 2 or 3 ranges, all but the first coded by
    forked children, against the same text in one range."""

    @pytest.fixture(params=[2, 3], ids=lambda k: f"ranges-{k}")
    def ranges(self, request, monkeypatch):
        monkeypatch.setattr(datasets, "_FORK_CHARS", 1)
        monkeypatch.setattr(_parallel, "cpus", lambda: request.param)
        limit = csv.field_size_limit(40)
        yield request.param
        csv.field_size_limit(limit)

    @pytest.mark.parametrize("case", sorted(RANGED))
    def test_same_levels_array_and_errors(self, case, ranges, forks, no_children, monkeypatch):
        ranged = outcome(parse_two_way, RANGED[case])
        assert len(forks) == ranges - 1
        no_children()
        monkeypatch.setattr(_parallel, "cpus", lambda: 1)
        assert outcome(parse_two_way, RANGED[case]) == ranged
        assert len(forks) == ranges - 1
        no_children()

    @pytest.mark.parametrize(
        "case",
        [
            "late-labels", "padded-then-plain", "non-ascii", "short-cell-across-ranges",
            "shared-prefix", "multi-byte-wide", "stripped-equal-wide", "empty-label",
        ],
    )
    def test_plain_text_stays_columnar(self, case, ranges, monkeypatch):
        monkeypatch.setattr(datasets, "_read_rows", refuse_rows)
        outcome(parse_two_way, RANGED[case])

    def test_expected_results(self, ranges):
        first = outcome(parse_two_way, RANGED["late-labels"])
        assert first[0] == (("a2", "a1", "a3"), ("b1", "b2"))
        assert outcome(parse_two_way, RANGED["padded-then-plain"]) == first
        levels, array = outcome(parse_two_way, RANGED["non-ascii"])
        assert levels == (("\u65e5\u672c", "\u03b11", "\udc80x"), ("b\u00e9", "b2"))
        assert array == first[1]
        wide = outcome(parse_two_way, RANGED["shared-prefix"])
        assert wide == (renamed(RANGED_PREFIX), first[1])
        assert outcome(parse_two_way, RANGED["stripped-equal-wide"]) == wide
        assert outcome(parse_two_way, RANGED["multi-byte-wide"]) == (renamed(MULTI_BYTE), first[1])
        assert outcome(parse_two_way, RANGED["empty-label"]) == (renamed({"a3": ""}), first[1])
        assert outcome(parse_two_way, RANGED["short-cell-across-ranges"]) == (
            "BalanceError",
            "unbalanced design: 1 of 6 cells lack the common replicate count 4: 'a2,b2' has 3",
        )
        assert outcome(parse_two_way, RANGED["late-bad-value"]) == (
            "ParseError",
            "line 24: expected a finite number, got 'oops'",
        )
        assert outcome(parse_two_way, RANGED["late-comma-count"]) == (
            "ParseError",
            "line 25: expected 3 fields, got 4",
        )
        assert outcome(parse_two_way, RANGED["late-long-line"]) == (
            "ParseError",
            "line 24: field larger than field limit (40)",
        )

    def test_one_way_layout(self, ranges, no_children):
        text = "level,value\n" + "".join(f" L{i % 3} ,{i * 0.75}\n" for i in range(12))
        d = parse_one_way(text)
        no_children()
        assert d.levels == ("L0", "L1", "L2")
        assert d.values.tolist() == [[0.0, 2.25, 4.5, 6.75], [0.75, 3.0, 5.25, 7.5], [1.5, 3.75, 6.0, 8.25]]

    def test_children_reaped_when_this_range_raises(self, ranges, forks, no_children, monkeypatch):
        parent, code_range = os.getpid(), datasets._code_range

        def interrupted(text, start, stop, width):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return code_range(text, start, stop, width)

        monkeypatch.setattr(datasets, "_code_range", interrupted)
        with pytest.raises(KeyboardInterrupt):
            parse_two_way(RANGED["late-labels"])
        assert len(forks) == ranges - 1
        no_children()

    def test_range_of_a_child_that_dies_is_coded_here(self, ranges, forks, no_children, monkeypatch):
        expected = outcome(parse_two_way, RANGED["late-labels"])
        parent, code_range = os.getpid(), datasets._code_range

        def dies(text, start, stop, width):
            if os.getpid() != parent:
                os._exit(1)
            return code_range(text, start, stop, width)

        monkeypatch.setattr(datasets, "_code_range", dies)
        monkeypatch.setattr(datasets, "_read_rows", refuse_rows)
        assert outcome(parse_two_way, RANGED["late-labels"]) == expected
        assert len(forks) == 2 * (ranges - 1)
        no_children()

    def test_ranges_coded_here_when_fork_fails(self, ranges, no_children, monkeypatch):
        expected = outcome(parse_two_way, RANGED["late-labels"])

        def fails():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fails)
        monkeypatch.setattr(datasets, "_read_rows", refuse_rows)
        assert outcome(parse_two_way, RANGED["late-labels"]) == expected
        no_children()


class TestRandomTexts:
    """Seeded random two-way texts, read by the columnar pass in 1 to 3
    ranges and in blocks of 7, 64 or 2**20 characters, and read quoted by
    the row reader, each against a plain-Python reading of the rows."""

    # pieces of labels and of their padding: ASCII, 2- and 3-byte UTF-8, a
    # surrogate escape, and separators that str.strip removes but that end
    # no line of a CSV
    PIECES = ["a", "Q", "7", "_", "\u00e9", "\u65e5", "\udc80", "\u3000", "\x1c", "\x85"]
    PADS = [" ", "\t", "\u3000", "\x1c", "\x85"]
    # float takes the first three; the others are refused by both passes
    ODD_VALUES = ["1_0", " 2", "\u0661\u0662", "1e400", "0x1"]

    def label(self, rng):
        """A label of 0 to 24 bytes."""
        size, label = rng.integers(25), ""
        while True:
            longer = label + self.PIECES[rng.integers(len(self.PIECES))]
            if len(longer.encode("utf-8", "surrogatepass")) > size:
                return label
            label = longer

    def padded(self, rng, label):
        """``label`` after 0 to 2 pads and before 0 to 2."""
        before, after = ("".join(rng.choice(self.PADS, size=n).tolist()) for n in rng.integers(3, size=2))
        return before + label + after

    def text(self, rng):
        """Rows of 1 to 3 levels of each factor, 1 to 3 per cell, shuffled,
        perhaps one short; a level's rows pad its label in different ways."""
        levels = [[self.label(rng) for _ in range(rng.integers(1, 4))] for _ in range(2)]
        rows = [
            ",".join([
                *(self.padded(rng, label) if rng.random() < 0.5 else label for label in cell),
                self.ODD_VALUES[rng.integers(5)] if rng.random() < 0.03 else repr(round(rng.normal(), 3)),
            ])
            for cell in product(*levels)
            for _ in range(rng.integers(1, 4))
        ]
        rng.shuffle(rows)
        return two_way_text(rows[: len(rows) - (rng.random() < 0.2)])

    @staticmethod
    def reference(text):
        """Levels, codes and values of plain text, or None if a value is not a finite number."""
        rows = [line.split(",") for line in text.split("\n")[1:] if line]
        levels, codes = [{}, {}], [[], []]
        for row in rows:
            for level, code, label in zip(levels, codes, row):
                code.append(level.setdefault(label.strip(), len(level)))
        try:
            values = [float(row[-1]) for row in rows]
        except ValueError:
            return None
        return ([list(level) for level in levels], codes, values) if np.isfinite(values).all() else None

    @staticmethod
    def coded(columns):
        return (
            [list(level) for level in columns.levels],
            [np.frombuffer(codes, dtype=np.int64).tolist() for codes in columns.codes],
            columns.values.tolist(),
        )

    def test_both_passes_match_plain_python(self, no_children, monkeypatch):
        rng = np.random.default_rng(11)
        monkeypatch.setattr(datasets, "_FORK_CHARS", 1)
        for _ in range(300):
            text = self.text(rng)
            monkeypatch.setattr(datasets, "_BLOCK_CHARS", [7, 64, 1 << 20][rng.integers(3)])
            # forks are slow: one text in five is cut into 2 or 3 ranges
            monkeypatch.setattr(_parallel, "cpus", lambda k=int(rng.choice(3, p=[0.8, 0.1, 0.1])) + 1: k)
            expected = self.reference(text)
            columnar = datasets._read_blocks(text, TWO_WAY_HEADER)
            if expected is None:
                assert columnar is None
                with pytest.raises(ParseError, match="expected a finite number"):
                    datasets._read_rows(quote_all(text), TWO_WAY_HEADER)
            else:
                assert self.coded(columnar) == expected
                assert self.coded(datasets._read_rows(quote_all(text), TWO_WAY_HEADER)) == expected
        no_children()

    def test_label_coder_matches_a_dict(self):
        """``_code_labels`` on fields from a pool of near-equal labels of 0 to
        20 characters, with NUL, which the row reader passes on."""
        rng = np.random.default_rng(12)
        pieces = ["\0", "\x07", "\x08", "a", "\u00e9", "\udc80"]
        pool = ["".join(pieces[i] for i in rng.integers(len(pieces), size=rng.integers(21))) for _ in range(60)]
        # longer by a NUL, shorter by a character, or another last byte
        pool += [label + "\0" for label in pool] + [label[1:] for label in pool]
        pool += [label[:-1] + "a" for label in pool] + [label[:-1] + "\x07" for label in pool]
        fields = [pool[i] for i in rng.integers(len(pool), size=3000)]
        encoded = [field.encode("utf-8", "surrogatepass") for field in fields]
        lengths = [len(field) for field in encoded]
        ends = np.cumsum(lengths)
        distinct, index = datasets._code_labels(b"".join(encoded), ends - lengths, ends)
        assert distinct == list(dict.fromkeys(fields))
        assert index.tolist() == [distinct.index(field) for field in fields]

    def test_hash_collision_keeps_labels_apart(self):
        """Two 16-byte labels whose word hashes collide, rows interleaved:
        ``_code_labels`` may list a label twice but never maps a row to the
        other label, and both passes read the two levels as plain Python does."""
        pair = [b"treatment_000001", b"uK/+7Q?@77e60001"]
        # the hash of a 16-byte field's two words, as _field_keys takes it
        factor = int(datasets._HASH_FACTOR)
        hashes = {
            (factor * int.from_bytes(label[:8], "little") + factor**2 * int.from_bytes(label[8:], "little"))
            % 2**64
            for label in pair
        }
        assert len(hashes) == 1
        rng = np.random.default_rng(13)
        fields = [pair[i].decode() for i in rng.permutation(np.arange(400) % 2)]
        lengths = [16] * len(fields)
        ends = np.cumsum(lengths)
        distinct, index = datasets._code_labels("".join(fields).encode(), ends - lengths, ends)
        assert [distinct[i] for i in index] == fields
        assert list(dict.fromkeys(distinct)) == list(dict.fromkeys(fields))
        text = "level,value\n" + "".join(f"{field},{i}\n" for i, field in enumerate(fields))
        for read in (text, crlf(text)):
            d = parse_one_way(read)
            assert d.levels == tuple(dict.fromkeys(fields))
            for level, row in zip(d.levels, d.values):
                assert row.tolist() == [i for i, field in enumerate(fields) if field == level]


class TestWideLabelMemory:
    """A label of 100,000 bytes among 30,000 short ones: both passes read it
    as plain Python does, in memory linear in the text, not in the rows
    times the widest label."""

    def test_levels_array_and_peak(self):
        levels = [f"L{i}" for i in range(14_999)] + ["w" * 100_000]
        values = np.arange(2 * len(levels), dtype=float).reshape(2, -1)
        text = "level,value\n" + "".join(
            f"{level},{value!r}\n" for replicate in values.tolist() for level, value in zip(levels, replicate)
        )
        for read in (text, crlf(text)):
            tracemalloc.start()
            try:
                d = parse_one_way(read)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert d.levels == tuple(levels)
            np.testing.assert_array_equal(d.values, values.T)
            # about 12 times the text for the columnar pass and 17 for the row
            # pass, most of it per-row arrays and objects; a key array of
            # rows times the widest label would be thousands of times the text
            assert peak < 20 * len(text)


class TestByteOrderMark:
    """A UTF-8 byte-order mark before the header, as spreadsheets that save
    "CSV UTF-8" write it, is dropped by both passes."""

    LAYOUTS = {
        "one-way": (
            parse_one_way, "level,value\n" + "".join(f"L{i % 3},{i * 0.75}\n" for i in range(12))
        ),
        "two-way": (parse_two_way, two_way_text(CELL_ROWS)),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_columnar_pass(self, layout, monkeypatch):
        parse, text = self.LAYOUTS[layout]
        plain = outcome(parse, text)
        assert isinstance(plain[0], tuple)
        monkeypatch.setattr(datasets, "_read_rows", refuse_rows)
        assert outcome(parse, "\ufeff" + text) == plain

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_row_pass(self, layout):
        parse, text = self.LAYOUTS[layout]
        # a quoted label sends the text to the row reader
        quoted = text.replace("\nL1,", '\n"L1",').replace("\na1,", '\n"a1",')
        assert quoted != text
        plain = outcome(parse, text)
        assert outcome(parse, quoted) == plain
        assert outcome(parse, "\ufeff" + quoted) == plain

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_line_in_errors(self, layout):
        parse, text = self.LAYOUTS[layout]
        lines = text.split("\n")
        bad = "\n".join([*lines[:4], lines[4].rsplit(",", 1)[0] + ",oops", *lines[5:]])
        error = outcome(parse, bad)
        assert error == ("ParseError", "line 5: expected a finite number, got 'oops'")
        assert outcome(parse, "\ufeff" + bad) == error


class TestBalancedPlacement:
    """``_Columns.balanced`` places the values as a stable argsort of the
    int64 cell indices does, whether the indices take one 16-bit digit or
    two, and on rows already grouped by cell."""

    @pytest.mark.parametrize(
        "sizes, shuffled",
        # 60,000 cells take one 16-bit digit, 120,000 take two
        [((300, 200), True), ((400, 300), True), ((400, 300), False)],
        ids=["one-digit", "two-digits", "grouped"],
    )
    def test_same_values_as_a_stable_argsort(self, sizes, shuffled):
        rng = np.random.default_rng(3)
        # two rows of each cell, one after the other
        rows = np.repeat(list(product(range(sizes[0]), range(sizes[1]))), 2, axis=0)
        if shuffled:
            rows = rng.permutation(rows)
        columns = datasets._Columns(2)
        names = [[f"a{i}" for i in range(sizes[0])], [f"b{j}" for j in range(sizes[1])]]
        columns.add(zip(names, rows.T), rng.normal(size=len(rows)).tobytes())
        levels, values = columns.balanced()
        assert tuple(map(len, levels)) == sizes
        cell = np.ravel_multi_index([np.frombuffer(c, dtype=np.int64) for c in columns.codes], sizes)
        expected = np.frombuffer(columns.values)[np.argsort(cell, kind="stable")]
        np.testing.assert_array_equal(values, expected.reshape(*sizes, 2))


class TestDatasetInvariants:
    def test_one_way_needs_two_levels(self):
        with pytest.raises(DegenerateDesignError):
            OneWayDataset(values=np.ones((1, 3)))

    def test_one_way_needs_two_replications(self):
        with pytest.raises(DegenerateDesignError):
            OneWayDataset(values=np.ones((3, 1)))

    def test_one_way_rejects_non_finite(self):
        with pytest.raises(DomainError):
            OneWayDataset(values=np.array([[1.0, np.nan], [2.0, 2.0]]))

    def test_one_way_rejects_wrong_shape(self):
        with pytest.raises(DegenerateDesignError):
            OneWayDataset(values=np.ones(6))

    def test_label_count_must_match(self):
        with pytest.raises(DomainError):
            OneWayDataset(values=np.ones((2, 2)), levels=("only",))

    def test_two_way_needs_two_levels_per_factor(self):
        with pytest.raises(DegenerateDesignError):
            TwoWayDataset(values=np.ones((1, 2, 2)))
        with pytest.raises(DegenerateDesignError):
            TwoWayDataset(values=np.ones((2, 1, 2)))

    def test_values_are_read_only(self):
        d = OneWayDataset(values=np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 5.0

    def test_defensive_copy(self):
        raw = np.ones((2, 2))
        d = OneWayDataset(values=raw)
        raw[0, 0] = 99.0
        assert d.values[0, 0] == 1.0
