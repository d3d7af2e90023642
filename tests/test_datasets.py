from itertools import product

import numpy as np
import pytest

from anovabf.datasets import (
    ONE_WAY_HEADER,
    TWO_WAY_HEADER,
    OneWayDataset,
    TwoWayDataset,
    parse_one_way,
    parse_two_way,
    write_csv,
)
from anovabf.errors import BalanceError, DegenerateDesignError, DomainError, ParseError

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
