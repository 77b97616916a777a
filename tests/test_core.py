"""Diagram geometry, object validation, enumeration and serialization."""

import math
from itertools import product

import pytest

from treelike.core import (
    EMPTY_COL_TABLEAU,
    EMPTY_ROW_TABLEAU,
    BorderPath,
    Cell,
    NonAmbiguousTree,
    PermutationTableau,
    TreeLikeTableau,
    enumerate_nat,
    enumerate_pt,
    enumerate_tlt,
    noc_class,
    parse_nat,
    parse_pt,
    parse_tlt,
    pt_filling_count,
    pt_fillings,
    stats_of,
    tlt_filling_tallies,
    tlt_fillings,
    to_json,
    to_text,
    transpose,
)

SIZE8_TEXT = "SWSSWWWSW\no.o.o\noo.o\n..o.\no"


class TestBorderPath:
    def test_labels_and_corners(self):
        p = BorderPath("SWSSWWWS")
        assert p.row_labels == (1, 3, 4, 8)
        assert p.col_labels == (2, 5, 6, 7)
        assert p.corner_cells == (Cell(1, 2), Cell(4, 5))
        assert p.row_lengths == (4, 3, 3, 0)

    def test_all_south(self):
        p = BorderPath("SSS")
        assert p.num_rows == 3
        assert p.num_cols == 0
        assert p.row_lengths == (0, 0, 0)
        assert p.corner_cells == ()

    def test_alternating(self):
        assert BorderPath("SWSW").corner_cells == (Cell(1, 2), Cell(3, 4))

    def test_col_order_is_decreasing_labels(self):
        p = BorderPath("SWWW")
        # leftmost column carries the largest label
        assert p.col_label_at(0) == 4
        assert p.col_label_at(2) == 2
        assert p.col_index(4) == 0
        assert p.col_index(2) == 2

    def test_cell_existence(self):
        p = BorderPath("SWSSWWWS")
        assert p.cell_exists(1, 2)
        assert p.cell_exists(4, 5)
        assert not p.cell_exists(8, 5)  # row label above column label
        assert not p.cell_exists(2, 5)  # 2 is a column, not a row

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            BorderPath("")
        with pytest.raises(ValueError):
            BorderPath("SXW")


class TestTreeLikeValidation:
    def test_root_required(self):
        p = BorderPath("SWW")
        with pytest.raises(ValueError, match="root"):
            TreeLikeTableau(p, (0b10,))

    def test_one_parent_rule(self):
        # dot with both a left and an above dot
        p = BorderPath("SSWW")
        with pytest.raises(ValueError, match="both"):
            TreeLikeTableau(p, (0b11, 0b11))

    def test_orphan_rejected(self):
        p = BorderPath("SSWW")
        with pytest.raises(ValueError, match="no parent"):
            TreeLikeTableau(p, (0b01, 0b10))

    def test_coverage_required(self):
        p = BorderPath("SSWW")
        with pytest.raises(ValueError):
            TreeLikeTableau(p, (0b01, 0b01))

    def test_dot_count_ties_to_path_length(self):
        # valid rules but wrong number of dots cannot arise; a wrong-length
        # path with a correct filling errors out
        p = BorderPath("SWSW")
        with pytest.raises(ValueError):
            TreeLikeTableau(p, (0b1,) + (0b1,))

    def test_degenerates(self):
        assert EMPTY_ROW_TABLEAU.size == 0
        assert EMPTY_COL_TABLEAU.size == 0
        assert EMPTY_ROW_TABLEAU.is_degenerate
        with pytest.raises(ValueError):
            TreeLikeTableau(BorderPath("S"), (1,))
        with pytest.raises(ValueError):
            TreeLikeTableau(BorderPath("W"), (0,))

    def test_dots_have_exactly_size_many(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                assert len(t.dots) == n
                assert t.size == n
                assert t.path.length == n + 1


class TestPermutationTableauValidation:
    def test_column_needs_a_one(self):
        p = BorderPath("SW")
        with pytest.raises(ValueError, match="no 1"):
            PermutationTableau(p, (0,))

    def test_forbidden_zero(self):
        # 0 with a 1 above and a 1 to its left
        p = BorderPath("SSWW")
        with pytest.raises(ValueError, match="0 with a 1 above"):
            PermutationTableau(p, (0b10, 0b01))

    def test_empty_rows_allowed(self):
        p = BorderPath("SS")
        pt = PermutationTableau(p, (0, 0))
        assert pt.size == 2

    def test_first_step_south(self):
        with pytest.raises(ValueError, match="South"):
            PermutationTableau(BorderPath("WS"), (0,))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_tlt_count_is_factorial(self, n):
        assert sum(1 for _ in enumerate_tlt(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pt_count_is_factorial(self, n):
        assert sum(1 for _ in enumerate_pt(n)) == math.factorial(n)

    def test_no_duplicates(self):
        for n in range(1, 6):
            ts = list(enumerate_tlt(n))
            assert len(set(ts)) == len(ts)
            ps = list(enumerate_pt(n))
            assert len(set(ps)) == len(ps)

    def test_canonical_order_paths_then_fillings(self):
        seen = [(t.path.steps, t.rows) for t in enumerate_tlt(3)]
        paths = [s for s, _ in seen]
        assert paths == sorted(paths)
        # within one path, fillings are row-major with empty before dot
        def key(rows, lengths):
            return "".join(
                "1" if (m >> c) & 1 else "0"
                for m, lam in zip(rows, lengths)
                for c in range(lam)
            )

        for steps in set(paths):
            group = [r for s, r in seen if s == steps]
            lengths = BorderPath(steps).row_lengths
            keys = [key(r, lengths) for r in group]
            assert keys == sorted(keys)

    def test_size_two_catalogue(self):
        ts = list(enumerate_tlt(2))
        assert [to_text(t) for t in ts] == ["SSW\no\no", "SWW\noo"]

    def test_size_three_catalogue(self):
        texts = [to_text(t) for t in enumerate_tlt(3)]
        assert texts == [
            "SSSW\no\no\no",
            "SSWW\no.\noo",
            "SSWW\noo\n.o",
            "SSWW\noo\no.",
            "SWSW\noo\no",
            "SWWW\nooo",
        ]

    def test_revalidation_of_generated_objects(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                TreeLikeTableau(t.path, t.rows)
            for p in enumerate_pt(n):
                PermutationTableau(p.path, p.rows)

    def test_nat_counts(self):
        assert sum(1 for _ in enumerate_nat(0, 0)) == 1
        assert sum(1 for _ in enumerate_nat(1, 1)) == 3
        assert sum(1 for _ in enumerate_nat(1, 2)) == 7
        assert sum(1 for _ in enumerate_nat(2, 1)) == 7
        for k in range(5):
            assert sum(1 for _ in enumerate_nat(0, k)) == 1
            assert sum(1 for _ in enumerate_nat(k, 0)) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list(tlt_fillings((), 0)),
            lambda: list(pt_fillings((), 0)),
            lambda: tlt_filling_tallies((), 0),
            lambda: pt_filling_count((), 0),
        ],
        ids=["tlt_fillings", "pt_fillings", "tlt_filling_tallies", "pt_filling_count"],
    )
    def test_shape_without_rows_is_value_error(self, call):
        with pytest.raises(ValueError, match="at least one row"):
            call()

    def test_nat_dimensions(self):
        for nat in enumerate_nat(2, 3):
            assert nat.height == 2
            assert nat.width == 3
            assert nat.tableau.size == 6


class TestStats:
    def test_size_three_stats(self):
        by_text = {to_text(t): stats_of(t) for t in enumerate_tlt(3)}
        s = by_text["SSSW\no\no\no"]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (1, 1, 0, 2)
        s = by_text["SWSW\noo\no"]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (2, 2, 1, 1)
        s = by_text["SSWW\noo\no."]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (1, 0, 1, 1)
        s = by_text["SSWW\no.\noo"]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (1, 1, 0, 1)
        total_corners = sum(v.corners for v in by_text.values())
        assert total_corners == 7

    def test_top_left_vs_first_points(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                s = stats_of(t)
                assert s.top == s.firstRowPoints - 1
                assert s.left == s.firstColumnPoints - 1
                assert s.corners == s.occupiedCorners + s.nonOccupiedCorners


class TestNocClass:
    def test_size_three_unique_noc_corner(self):
        t = parse_tlt("SSWW\noo\no.")
        assert noc_class(t, Cell(2, 3)) == "AB"

    def test_rejects_non_corner_and_occupied(self):
        t = parse_tlt("SSWW\noo\no.")
        with pytest.raises(ValueError, match="not a corner"):
            noc_class(t, Cell(1, 3))
        t2 = parse_tlt("SSWW\no.\noo")
        with pytest.raises(ValueError, match="occupied"):
            noc_class(t2, Cell(2, 3))

    def test_class_swap_under_transpose(self):
        swap = {"AB": "AB", "A1": "1B", "1B": "A1", "OneOne": "OneOne"}
        for n in range(3, 6):
            for t in enumerate_tlt(n):
                tt = transpose(t)
                for cell, (r, c) in zip(t.path.corner_cells, t.path.corner_grid_positions):
                    if (t.rows[r] >> c) & 1:
                        continue
                    mirrored = Cell(n + 2 - cell.col, n + 2 - cell.row)
                    assert noc_class(tt, mirrored) == swap[noc_class(t, cell)]


class TestTranspose:
    def test_involution_and_stat_swap(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                tt = transpose(t)
                assert transpose(tt) == t
                s, st = stats_of(t), stats_of(tt)
                assert (s.top, s.left) == (st.left, st.top)
                assert s.corners == st.corners
                assert s.occupiedCorners == st.occupiedCorners

    def test_degenerate_swap(self):
        assert transpose(EMPTY_ROW_TABLEAU) == EMPTY_COL_TABLEAU
        assert transpose(EMPTY_COL_TABLEAU) == EMPTY_ROW_TABLEAU


class TestSerialization:
    def test_size8_fixture(self):
        t = parse_tlt(SIZE8_TEXT)
        assert t.size == 8
        assert to_text(t) == SIZE8_TEXT
        assert t.has_dot(Cell(1, 9)) and t.has_dot(Cell(4, 6))
        assert not t.has_dot(Cell(1, 7))

    def test_pt_with_trailing_empty_row(self):
        # the last row has length zero, so the text form ends with an
        # empty line that the parser must keep
        text = "SWSSWWWS\n0101\n111\n001\n"
        p = parse_pt(text)
        assert p.path.steps == "SWSSWWWS"
        assert p.rows[-1] == 0
        assert to_text(p) == text
        assert parse_pt(to_text(p)) == p

    def test_degenerate_round_trip(self):
        assert parse_tlt(to_text(EMPTY_ROW_TABLEAU)) == EMPTY_ROW_TABLEAU
        assert parse_tlt(to_text(EMPTY_COL_TABLEAU)) == EMPTY_COL_TABLEAU

    def test_json_shape(self):
        t = parse_tlt("SWW\noo")
        assert to_json(t) == '{"path":"SWW","rows":["oo"]}'

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_tlt("SWW\no")  # wrong row length
        with pytest.raises(ValueError):
            parse_tlt("SWW\nox")  # bad character
        with pytest.raises(ValueError):
            parse_nat("SWSW\noo\no")  # not rectangular

    def test_text_round_trip_property(self):
        # every object up to size 6; pt rows of length 0 are empty lines
        for n in range(1, 7):
            for t in enumerate_tlt(n):
                assert parse_tlt(to_text(t)) == t
            for p in enumerate_pt(n):
                assert parse_pt(to_text(p)) == p
        for h, w in product(range(4), repeat=2):
            for nat in enumerate_nat(h, w):
                assert parse_nat(to_text(nat)) == nat


class TestNatValidation:
    def test_wrap_requires_rectangle(self):
        t = parse_tlt("SWSW\noo\no")
        with pytest.raises(ValueError, match="rectangular"):
            NonAmbiguousTree(t)

    def test_transpose_swaps_dims(self):
        from treelike.core import transpose_nat

        for nat in enumerate_nat(1, 2):
            tt = transpose_nat(nat)
            assert (tt.height, tt.width) == (2, 1)
