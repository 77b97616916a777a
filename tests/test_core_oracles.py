"""The bit-level core against the per-cell code it replaced.

The filling engine is an explicit-stack loop, the constructors validate a
row at a time with mask arithmetic, and rows are rendered from a table of
8-cell strings. The reference versions below are the earlier recursive
engine and per-dot / per-cell loops, kept here unchanged as oracles: the
fast code must yield the same sequences, accept and reject exactly the same
inputs with the same first error, and write the same text.
"""

import json
from collections import Counter
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import filling_count, pt_filling_count, tlt_dot_counts, tlt_filling_tallies
from treelike.bijections import pt_to_tlt
from treelike.core import (
    _EMPTY,
    _FILLED,
    _PT_CELL,
    _ROW_TABLES,
    _TLT_CELL,
    _TLT_ROOT,
    _TLT_ROW_END,
    SOUTH,
    WEST,
    BorderPath,
    PermutationTableau,
    TreeLikeTableau,
    _tlt_paths,
    enumerate_nat,
    filling_rank,
    filling_unrank,
    first_col_points,
    first_row_points,
    pt_fillings,
    tlt_fillings,
    tlt_first_row_counts,
    to_json,
    to_text,
)

# ---------------------------------------------------------------------------
# oracles


def recursive_fillings(lengths, width, rules):
    k = len(lengths)
    full = (1 << width) - 1
    col_last = [-1] * width
    for r, lam in enumerate(lengths):
        for c in range(lam):
            col_last[c] = r
    rows = [0] * k

    def fill(r, c, above, covered):
        if c == lengths[r]:
            if r + 1 == k:
                if covered == full:
                    yield tuple(rows)
            else:
                yield from fill(r + 1, 0, above | rows[r], covered)
            return
        mask = rows[r]
        may = rules[r][c][(2 if mask else 0) | ((above >> c) & 1)]
        if may & _EMPTY and not (col_last[c] == r and not (covered >> c) & 1):
            yield from fill(r, c + 1, above, covered)
        if may & _FILLED:
            rows[r] = mask | (1 << c)
            yield from fill(r, c + 1, above, covered | (1 << c))
            rows[r] = mask

    yield from fill(0, 0, 0, 0)


def recursive_tlt_fillings(lengths, width):
    rules = []
    for r, lam in enumerate(lengths):
        row = [_TLT_CELL] * lam
        if lam:
            row[-1] = _TLT_ROW_END
            if r == 0:
                row[0] = _TLT_ROOT
        rules.append(row)
    return recursive_fillings(lengths, width, rules)


def recursive_pt_fillings(lengths, width):
    return recursive_fillings(lengths, width, [(_PT_CELL,) * lam for lam in lengths])


def per_dot_tlt_check(path, rows):
    steps = path.steps
    if steps == SOUTH:
        if rows != (0,):
            raise ValueError("single-row degenerate tableau must be empty")
        return
    if steps == WEST:
        if rows != ():
            raise ValueError("single-column degenerate tableau must be empty")
        return
    if steps[0] != SOUTH:
        raise ValueError("first step must be South")
    if steps[-1] != WEST:
        raise ValueError("last step must be West")
    lengths = path.row_lengths
    if len(rows) != len(lengths):
        raise ValueError("row count does not match path")
    for mask, lam in zip(rows, lengths):
        if mask < 0 or mask >> lam:
            raise ValueError("dot outside its row")
    if not rows or not (rows[0] & 1):
        raise ValueError("top-left root cell must be dotted")
    above = 0
    total = 0
    for r, mask in enumerate(rows):
        if mask == 0:
            raise ValueError(f"row {r + 1} has no dot")
        m = mask
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            total += 1
            if r == 0 and c == 0:
                continue
            has_left = bool(mask & ((1 << c) - 1))
            has_above = bool((above >> c) & 1)
            if has_left == has_above:
                where = "both a left and an above dot" if has_left else "no parent dot"
                raise ValueError(f"cell at row {r + 1}, column index {c} has {where}")
        above |= mask
    if above != (1 << path.num_cols) - 1:
        raise ValueError("some column has no dot")
    if total != len(steps) - 1:
        raise ValueError("dot count must equal path length minus one")


def per_cell_pt_check(path, rows):
    if path.steps[0] != SOUTH:
        raise ValueError("first step must be South")
    lengths = path.row_lengths
    if len(rows) != len(lengths):
        raise ValueError("row count does not match path")
    for mask, lam in zip(rows, lengths):
        if mask < 0 or mask >> lam:
            raise ValueError("1 outside its row")
    above = 0
    for r, mask in enumerate(rows):
        for c in range(lengths[r]):
            if (mask >> c) & 1:
                continue
            if (above >> c) & 1 and mask & ((1 << c) - 1):
                raise ValueError(
                    f"cell at row {r + 1}, column index {c} is 0 with a 1 above and a 1 to its left"
                )
        above |= mask
    if above != (1 << path.num_cols) - 1:
        raise ValueError("some column has no 1")


def per_cell_row(mask, lam, empty, full):
    return "".join(full if (mask >> c) & 1 else empty for c in range(lam))


def per_cell_text(obj, empty, full):
    return "\n".join(
        [obj.path.steps]
        + [per_cell_row(mask, lam, empty, full) for mask, lam in zip(obj.rows, obj.path.row_lengths)]
    )


# ---------------------------------------------------------------------------
# helpers

CASES = [
    (TreeLikeTableau, per_dot_tlt_check),
    (PermutationTableau, per_cell_pt_check),
]


def error_of(check, path, rows):
    """The ValueError message a check raises, or None if it accepts."""
    try:
        check(path, rows)
    except ValueError as exc:
        return str(exc)
    return None


def row_major_fillings(lengths):
    """Every in-row filling, in row-major order with empty before filled."""
    cells = [(r, c) for r, lam in enumerate(lengths) for c in range(lam)]
    for bits in product((0, 1), repeat=len(cells)):
        rows = [0] * len(lengths)
        for (r, c), b in zip(cells, bits):
            rows[r] |= b << c
        yield tuple(rows)


def shapes_in_any_row_order():
    """Every shape of 1-3 rows with 0-3 cells each, rows in any order, at
    every width from its longest row up to 4: 224 shapes, most of them no
    border path gives, where a row may be longer than the one above it."""
    for k in range(1, 4):
        for lengths in product(range(4), repeat=k):
            for width in range(max(lengths), 5):
                yield lengths, width


def all_steps(max_len):
    for n in range(1, max_len + 1):
        for steps in product(SOUTH + WEST, repeat=n):
            yield "".join(steps)


# ---------------------------------------------------------------------------
# tests


def test_fillings_match_recursive_engine():
    for n in range(1, 8):
        for steps in _tlt_paths(n):
            p = BorderPath(steps)
            args = (p.row_lengths, p.num_cols)
            assert list(tlt_fillings(*args)) == list(recursive_tlt_fillings(*args)), steps
        for steps in (s[:-1] for s in _tlt_paths(n)):
            p = BorderPath(steps)
            args = (p.row_lengths, p.num_cols)
            assert list(pt_fillings(*args)) == list(recursive_pt_fillings(*args)), steps
    # every walk over the cell moves agrees on shapes in any row order
    shapes = list(shapes_in_any_row_order())
    assert len(shapes) == 224
    for lengths, width in shapes:
        tlt = list(tlt_fillings(lengths, width))
        pt = list(pt_fillings(lengths, width))
        assert tlt == list(recursive_tlt_fillings(lengths, width)), (lengths, width)
        assert pt == list(recursive_pt_fillings(lengths, width)), (lengths, width)
        assert filling_count(lengths, width) == len(tlt), (lengths, width)
        assert pt_filling_count(lengths, width) == len(pt), (lengths, width)
        firsts = Counter((first_row_points(rows), first_col_points(rows)) for rows in tlt)
        assert tlt_dot_counts(lengths, width) == firsts, (lengths, width)
        by_fr = Counter(first_row_points(rows) for rows in tlt)
        assert tlt_first_row_counts(lengths, width) == by_fr, (lengths, width)
        tallies = tlt_filling_tallies(lengths, width)
        assert {key: val[0] for key, val in tallies.items()} == firsts, (lengths, width)
        for i, rows in enumerate(tlt):
            assert filling_rank(lengths, width, rows) == i, (lengths, width)
            assert filling_unrank(lengths, width, i) == rows, (lengths, width)


def test_fillings_are_the_valid_cell_assignments_in_order():
    # brute force: the constructor filters every assignment of the cells
    for n in range(1, 7):
        for paths, fillings, cls in (
            (_tlt_paths(n), tlt_fillings, TreeLikeTableau),
            ((s[:-1] for s in _tlt_paths(n)), pt_fillings, PermutationTableau),
        ):
            for steps in paths:
                p = BorderPath(steps)
                valid = [
                    rows
                    for rows in row_major_fillings(p.row_lengths)
                    if error_of(cls, p, rows) is None
                ]
                assert list(fillings(p.row_lengths, p.num_cols)) == valid, steps


def test_constructors_match_oracles_on_every_in_row_filling():
    for steps in all_steps(7):
        p = BorderPath(steps)
        for rows in row_major_fillings(p.row_lengths):
            for cls, oracle in CASES:
                assert error_of(cls, p, rows) == error_of(oracle, p, rows), (steps, rows)


@st.composite
def path_and_rows(draw, min_size=1, max_size=7):
    steps = draw(st.text(SOUTH + WEST, min_size=min_size, max_size=max_size))
    lengths = BorderPath(steps).row_lengths
    rows = [draw(st.integers(-1, (2 << lam) - 1)) for lam in lengths]
    if draw(st.integers(0, 9)) == 0:  # now and then a wrong row count
        rows = rows[:-1] if rows and draw(st.booleans()) else rows + [1]
    return steps, tuple(rows)


@settings(max_examples=400, deadline=None)
@given(path_and_rows())
def test_constructors_match_oracles_on_random_masks(case):
    steps, rows = case
    p = BorderPath(steps)
    for cls, oracle in CASES:
        assert error_of(cls, p, rows) == error_of(oracle, p, rows)


@settings(max_examples=400, deadline=None)
@given(path_and_rows(min_size=8, max_size=16))
def test_constructors_match_oracles_on_long_random_masks(case):
    steps, rows = case
    p = BorderPath(steps)
    for cls, oracle in CASES:
        assert error_of(cls, p, rows) == error_of(oracle, p, rows)


@st.composite
def long_row_tableaux(draw):
    """A permutation tableau of length 10-16 with a row of 9-15 cells, and
    the tree-like tableau `pt_to_tlt` makes of it, with a row of 10-16.
    Arbitrary row masks are repaired into a valid filling: a column no
    lower row covers gets a 1 in row 0, and each row then gets a 1 in every
    cell right of its first 1 that has a 1 above it."""
    cols = draw(st.integers(9, 15))
    tail = draw(st.permutations(WEST * cols + SOUTH * draw(st.integers(0, 15 - cols))))
    path = BorderPath(SOUTH + "".join(tail))
    lengths = path.row_lengths
    rows = [draw(st.integers(0, (1 << lam) - 1)) for lam in lengths]
    lower = 0
    for mask in rows[1:]:
        lower |= mask
    rows[0] |= path.col_mask & ~lower
    above = 0
    for r, lam in enumerate(lengths):
        mask = rows[r]
        rows[r] = mask = mask | above & -((mask & -mask) << 1) & ((1 << lam) - 1)
        above |= mask
    pt = PermutationTableau(path, tuple(rows))
    return pt, pt_to_tlt(pt)


@settings(max_examples=200, deadline=None)
@given(long_row_tableaux(), st.data())
def test_long_rows_match_oracles(objs, data):
    # rows longer than the renderer's 8-cell table, and the first error of
    # both constructors after one cell of a valid long filling is flipped
    pt, t = objs
    for obj, cls, oracle, (empty, full) in (
        (pt, PermutationTableau, per_cell_pt_check, "01"),
        (t, TreeLikeTableau, per_dot_tlt_check, ".o"),
    ):
        assert max(obj.path.row_lengths) > 8
        assert error_of(oracle, obj.path, obj.rows) is None
        text = per_cell_text(obj, empty, full)
        assert to_text(obj) == text
        assert json.loads(to_json(obj)) == {"path": obj.path.steps, "rows": text.split("\n")[1:]}
        rows = list(obj.rows)
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r] ^= 1 << data.draw(st.integers(0, max(obj.path.row_lengths[r] - 1, 0)))
        rows = tuple(rows)
        assert error_of(cls, obj.path, rows) == error_of(oracle, obj.path, rows)


def test_text_matches_per_cell_rendering():
    for n in range(1, 7):
        for steps in _tlt_paths(n):
            p = BorderPath(steps)
            for rows in tlt_fillings(p.row_lengths, p.num_cols):
                t = TreeLikeTableau(p, rows)
                assert to_text(t) == per_cell_text(t, ".", "o")
        for steps in (s[:-1] for s in _tlt_paths(n)):
            p = BorderPath(steps)
            for rows in pt_fillings(p.row_lengths, p.num_cols):
                pt = PermutationTableau(p, rows)
                assert to_text(pt) == per_cell_text(pt, "0", "1")
    for nat in enumerate_nat(2, 3):
        assert to_text(nat) == per_cell_text(nat.tableau, ".", "o")


def test_row_tables_match_per_cell_rendering():
    # every mask of every row length 0-8, in both families
    for cls, (empty, full) in ((TreeLikeTableau, ".o"), (PermutationTableau, "01")):
        tables = _ROW_TABLES[cls]
        assert len(tables) == 9
        for lam, table in enumerate(tables):
            assert len(table) == 1 << lam
            for mask, text in enumerate(table):
                assert text == per_cell_row(mask, lam, empty, full)


def test_rows_of_8_and_9_cells_match_per_cell_rendering():
    # the longest row the tables hold next to the shortest chunk-joined one:
    # rows of 9 and 8 cells, every filling of both families
    path = BorderPath("SWSWWWWWWWW")
    assert path.row_lengths == (9, 8)
    for cls, fillings, (empty, full) in (
        (TreeLikeTableau, tlt_fillings, ".o"),
        (PermutationTableau, pt_fillings, "01"),
    ):
        count = 0
        for rows in fillings(path.row_lengths, path.num_cols):
            obj = cls(path, rows)
            text = per_cell_text(obj, empty, full)
            assert to_text(obj) == text
            assert json.loads(to_json(obj)) == {"path": path.steps, "rows": text.split("\n")[1:]}
            count += 1
        assert count == (255 if cls is TreeLikeTableau else 511)
