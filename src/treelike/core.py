"""Diagrams, tableaux and their statistics.

A border path walks from the top-right corner to the bottom-left one; its
steps are labeled 1..n in walking order. South steps are rows (top to
bottom), west steps are columns (right to left), so column labels decrease
from left to right. Cell (i, j) exists exactly when row label i is smaller
than column label j.

Fillings are stored as one bitmask per row, top to bottom; bit c is the
cell at column index c, counted from the left.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Iterator, NamedTuple

SOUTH = "S"
WEST = "W"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _cached:
    """A value computed on first access and stored on the instance, which
    then shadows this non-data descriptor. Unlike functools.cached_property
    before Python 3.12, it takes no class-wide lock on each first access."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Cell(NamedTuple):
    """A cell addressed by (row label, column label)."""

    row: int
    col: int


class StatRecord(NamedTuple):
    corners: int
    occupiedCorners: int
    nonOccupiedCorners: int
    top: int
    left: int
    firstColumnPoints: int
    firstRowPoints: int


@dataclass(frozen=True)
class BorderPath:
    """Southeast border of a diagram, as a string over {S, W}."""

    steps: str

    def __post_init__(self):
        if not self.steps:
            raise ValueError("empty step sequence")
        bad = set(self.steps) - {SOUTH, WEST}
        if bad:
            raise ValueError(f"invalid steps: {sorted(bad)!r}")

    @property
    def length(self) -> int:
        return len(self.steps)

    @_cached
    def row_labels(self) -> tuple[int, ...]:
        """Labels of the south steps, increasing = top to bottom."""
        return tuple(i + 1 for i, ch in enumerate(self.steps) if ch == SOUTH)

    @_cached
    def col_labels(self) -> tuple[int, ...]:
        """Labels of the west steps, in increasing label order."""
        return tuple(i + 1 for i, ch in enumerate(self.steps) if ch == WEST)

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)

    @_cached
    def row_lengths(self) -> tuple[int, ...]:
        """Cells per row; row i holds the columns with labels above i."""
        cols = self.col_labels
        return tuple(len(cols) - bisect_right(cols, r) for r in self.row_labels)

    def row_index(self, row_label: int) -> int:
        return self.row_labels.index(row_label)

    def col_index(self, col_label: int) -> int:
        # columns run left to right by decreasing label
        return sum(1 for c in self.col_labels if c > col_label)

    def col_label_at(self, col_index: int) -> int:
        return sorted(self.col_labels, reverse=True)[col_index]

    def cell_exists(self, row_label: int, col_label: int) -> bool:
        return (
            row_label in set(self.row_labels)
            and col_label in set(self.col_labels)
            and row_label < col_label
        )

    @_cached
    def corner_cells(self) -> tuple[Cell, ...]:
        s = self.steps
        return tuple(
            Cell(i + 1, i + 2)
            for i in range(len(s) - 1)
            if s[i] == SOUTH and s[i + 1] == WEST
        )

    @_cached
    def corner_grid_positions(self) -> tuple[tuple[int, int], ...]:
        """Corners as (row index, column index); each is the last cell of its row."""
        out = []
        for cell in self.corner_cells:
            r = self.row_index(cell.row)
            out.append((r, self.row_lengths[r] - 1))
        return tuple(out)


@dataclass(frozen=True)
class TreeLikeTableau:
    """A dotted diagram: root dot, one-parent rule, full row/column coverage.

    Two degenerate size-0 values exist so that corner cutting is total: a
    single empty row (path "S") and a single empty column (path "W").
    """

    path: BorderPath
    rows: tuple[int, ...]

    def __post_init__(self):
        steps = self.path.steps
        if steps == SOUTH:
            if self.rows != (0,):
                raise ValueError("single-row degenerate tableau must be empty")
            return
        if steps == WEST:
            if self.rows != ():
                raise ValueError("single-column degenerate tableau must be empty")
            return
        if steps[0] != SOUTH:
            raise ValueError("first step must be South")
        if steps[-1] != WEST:
            raise ValueError("last step must be West")
        lengths = self.path.row_lengths
        if len(self.rows) != len(lengths):
            raise ValueError("row count does not match path")
        for mask, lam in zip(self.rows, lengths):
            if mask < 0 or mask >> lam:
                raise ValueError("dot outside its row")
        if not self.rows or not (self.rows[0] & 1):
            raise ValueError("top-left root cell must be dotted")
        width = self.path.num_cols
        above = 0
        for r, mask in enumerate(self.rows):
            if mask == 0:
                raise ValueError(f"row {r + 1} has no dot")
            # a dot needs exactly one parent: every dot but the row's first
            # has one to its left, so the first needs a dot above it and the
            # others must not have one
            with_left = mask ^ (mask & -mask)
            bad = mask & ~(with_left ^ (mask & above))
            if r == 0:
                bad &= ~1  # the root needs no parent
            if bad:
                low = bad & -bad
                where = "both a left and an above dot" if with_left & low else "no parent dot"
                raise ValueError(
                    f"cell at row {r + 1}, column index {low.bit_length() - 1} has {where}"
                )
            above |= mask
        if above != (1 << width) - 1:
            raise ValueError("some column has no dot")
        if sum(m.bit_count() for m in self.rows) != len(steps) - 1:
            raise ValueError("dot count must equal path length minus one")

    @property
    def size(self) -> int:
        return sum(m.bit_count() for m in self.rows)

    @property
    def is_degenerate(self) -> bool:
        return self.size == 0

    @_cached
    def dots(self) -> frozenset[Cell]:
        out = []
        cols_desc = sorted(self.path.col_labels, reverse=True)
        for r, mask in enumerate(self.rows):
            row_label = self.path.row_labels[r]
            out.extend(Cell(row_label, cols_desc[c]) for c in _bits(mask))
        return frozenset(out)

    def has_dot(self, cell: Cell) -> bool:
        r = self.path.row_index(cell.row)
        return bool((self.rows[r] >> self.path.col_index(cell.col)) & 1)


# the two size-0 tableaux used by corner cutting
EMPTY_ROW_TABLEAU = TreeLikeTableau(BorderPath(SOUTH), (0,))
EMPTY_COL_TABLEAU = TreeLikeTableau(BorderPath(WEST), ())


@dataclass(frozen=True)
class PermutationTableau:
    """A 0/1-filled diagram: every column holds a 1, and no 0 has a 1
    above it together with a 1 to its left. Rows of length zero are fine."""

    path: BorderPath
    rows: tuple[int, ...]  # bitmask of the 1s per row

    def __post_init__(self):
        steps = self.path.steps
        if steps[0] != SOUTH:
            raise ValueError("first step must be South")
        lengths = self.path.row_lengths
        if len(self.rows) != len(lengths):
            raise ValueError("row count does not match path")
        for mask, lam in zip(self.rows, lengths):
            if mask < 0 or mask >> lam:
                raise ValueError("1 outside its row")
        width = self.path.num_cols
        above = 0
        for r, (mask, lam) in enumerate(zip(self.rows, lengths)):
            # the 0-cells of the row that have a 1 above them and lie right
            # of the row's first 1
            bad = above & ~mask & -((mask & -mask) << 1) & ((1 << lam) - 1)
            if bad:
                c = (bad & -bad).bit_length() - 1
                raise ValueError(
                    f"cell at row {r + 1}, column index {c} is 0 with a 1 above and a 1 to its left"
                )
            above |= mask
        if above != (1 << width) - 1:
            raise ValueError("some column has no 1")

    @property
    def size(self) -> int:
        return self.path.length


@dataclass(frozen=True)
class NonAmbiguousTree:
    """A rectangular tree-like tableau; height/width count rows/columns minus one."""

    tableau: TreeLikeTableau

    def __post_init__(self):
        t = self.tableau
        if t.is_degenerate:
            raise ValueError("tree must have at least one dot")
        lengths = set(t.path.row_lengths)
        if len(lengths) != 1:
            raise ValueError("shape is not rectangular")

    @property
    def height(self) -> int:
        return self.tableau.path.num_rows - 1

    @property
    def width(self) -> int:
        return self.tableau.path.num_cols - 1


def first_row_points(rows: tuple[int, ...]) -> int:
    """Dots in the top row; 0 when there is no row."""
    return rows[0].bit_count() if rows else 0


def first_col_points(rows: tuple[int, ...]) -> int:
    """Dots in the leftmost column."""
    return sum(1 for m in rows if m & 1)


def stats_of(t: TreeLikeTableau) -> StatRecord:
    """All corner and first-row/first-column statistics of a tableau."""
    occ = 0
    cor = len(t.path.corner_cells)
    for r, c in t.path.corner_grid_positions:
        if (t.rows[r] >> c) & 1:
            occ += 1
    fr = first_row_points(t.rows)
    fc = first_col_points(t.rows)
    return StatRecord(
        corners=cor,
        occupiedCorners=occ,
        nonOccupiedCorners=cor - occ,
        top=fr - 1,
        left=fc - 1,
        firstColumnPoints=fc,
        firstRowPoints=fr,
    )


NOC_CLASS_AB = "AB"
NOC_CLASS_A1 = "A1"
NOC_CLASS_1B = "1B"
NOC_CLASS_ONE_ONE = "OneOne"
NOC_CLASSES = (NOC_CLASS_AB, NOC_CLASS_A1, NOC_CLASS_1B, NOC_CLASS_ONE_ONE)


def noc_class(t: TreeLikeTableau, c: Cell) -> str:
    """Classify an undotted corner by where the dots of its row and column sit.

    Column test: every dot above the corner in its column is in row 1.
    Row test: every dot to the corner's left in its row is in the first
    column. Both, only the column test, only the row test, or neither give
    AB, A1, 1B, OneOne respectively.
    """
    if c not in t.path.corner_cells:
        raise ValueError(f"{c} is not a corner")
    r = t.path.row_index(c.row)
    ci = t.path.col_index(c.col)
    if (t.rows[r] >> ci) & 1:
        raise ValueError(f"{c} is an occupied corner")
    return _noc_class_at(t.rows, r, ci)


def _noc_class_at(rows: tuple[int, ...], r: int, c: int) -> str:
    # the class of the undotted corner at row index r, column index c
    col_ok = not any((rows[rr] >> c) & 1 for rr in range(1, r))
    row_ok = rows[r] & ~1 == 0
    if col_ok:
        return NOC_CLASS_AB if row_ok else NOC_CLASS_A1
    return NOC_CLASS_1B if row_ok else NOC_CLASS_ONE_ONE


def transpose(t: TreeLikeTableau) -> TreeLikeTableau:
    """Reflect across the main diagonal; swaps rows with columns."""
    steps = "".join(SOUTH if ch == WEST else WEST for ch in reversed(t.path.steps))
    heights = [0] * t.path.num_cols
    for r, mask in enumerate(t.rows):
        for c in _bits(mask):
            heights[c] |= 1 << r
    return TreeLikeTableau(BorderPath(steps), tuple(heights))


def transpose_nat(nat: NonAmbiguousTree) -> NonAmbiguousTree:
    return NonAmbiguousTree(transpose(nat.tableau))


# ---------------------------------------------------------------------------
# enumeration


def _tlt_paths(n: int) -> Iterator[str]:
    # lexicographic with S < W; first step S and last step W are forced
    for inner in product(SOUTH + WEST, repeat=n - 1):
        yield SOUTH + "".join(inner) + WEST


def _pt_paths(n: int) -> Iterator[str]:
    # column deletion: a permutation tableau's border is a tree-like border
    # without its last W
    for steps in _tlt_paths(n):
        yield steps[:-1]


# What one cell may hold, indexed by (has a filled cell to its left) * 2 +
# (has a filled cell above it): bit 1 allows empty, bit 2 allows filled.
_EMPTY, _FILLED, _EITHER = 1, 2, 3
_TLT_ROOT = (_FILLED,) * 4  # the top-left root cell is always dotted
# a dot needs exactly one parent, to its left or above it
_TLT_CELL = (_EMPTY, _EITHER, _EITHER, _EMPTY)
# ... and the last cell of a row that is still empty must be dotted
_TLT_ROW_END = (0, _FILLED, _EITHER, _EMPTY)
# a 0 may not have a 1 both above it and to its left
_PT_CELL = (_EITHER, _EITHER, _EITHER, _FILLED)


def _tlt_rules(lengths: tuple[int, ...]) -> list:
    rules = []
    for r, lam in enumerate(lengths):
        row = [_TLT_CELL] * lam
        if lam:
            row[-1] = _TLT_ROW_END
            if r == 0:
                row[0] = _TLT_ROOT
        rules.append(row)
    return rules


def _pt_rules(lengths: tuple[int, ...]) -> list:
    return [(_PT_CELL,) * lam for lam in lengths]


def _bottom_cells(lengths: tuple[int, ...]) -> list[int]:
    """Per row, the mask of the columns whose bottom-most cell is in it;
    a column with no filled cell yet must fill that cell."""
    if not lengths:
        raise ValueError("a shape needs at least one row")
    out = []
    below = 0
    for lam in reversed(lengths):
        out.append(((1 << lam) - 1) & ~below)
        below |= (1 << lam) - 1
    out.reverse()
    return out


def _fillings(lengths: tuple[int, ...], width: int, rules) -> Iterator[tuple[int, ...]]:
    """Row-major fillings, empty before filled, where rules[r][c] says what
    cell (r, c) may hold and every column must end up holding a filled cell.
    Yields one bitmask per row.

    A depth-first walk over the cells that always takes the empty branch
    first and keeps the filled branches it passed on a stack, so a filling
    is yielded straight from this frame and not up a chain of generators."""
    last_row = _bottom_cells(lengths)
    k = len(lengths)
    full = (1 << width) - 1
    rows = [0] * k
    pending = []  # filled branches not yet taken: (r, c, mask, above, covered)
    r = c = mask = above = covered = 0  # mask holds only cells left of c
    lam, rule, last = lengths[0], rules[0], last_row[0]
    while True:
        if c == lam:
            if r + 1 < k:
                rows[r] = mask
                above |= mask
                r += 1
                c = mask = 0
                lam, rule, last = lengths[r], rules[r], last_row[r]
                continue
            if covered == full:
                rows[r] = mask
                yield tuple(rows)
        else:
            bit = 1 << c
            may = rule[c][(2 if mask else 0) | (1 if above & bit else 0)]
            # the bottom-most cell of a column with no filled cell yet is filled
            may_empty = may & _EMPTY and not (last & bit and not covered & bit)
            if may & _FILLED:
                if may_empty:
                    pending.append((r, c, mask, above, covered))
                else:
                    mask |= bit
                    covered |= bit
                c += 1
                continue
            if may_empty:
                c += 1
                continue
        if not pending:
            return
        r, c, mask, above, covered = pending.pop()
        bit = 1 << c
        mask |= bit
        covered |= bit
        c += 1
        lam, rule, last = lengths[r], rules[r], last_row[r]


def tlt_fillings(lengths: tuple[int, ...], width: int) -> Iterator[tuple[int, ...]]:
    """All valid dot placements for a tree-like shape, in row-major order
    with empty before dot. Yields one bitmask per row."""
    yield from _fillings(lengths, width, _tlt_rules(lengths))


def pt_fillings(lengths: tuple[int, ...], width: int) -> Iterator[tuple[int, ...]]:
    """All valid 0/1 fillings for a permutation-tableau shape, row-major,
    0 before 1."""
    yield from _fillings(lengths, width, _pt_rules(lengths))


def _tally_fillings(lengths: tuple[int, ...], width: int, rules, corner_rows) -> dict:
    """Tally the fillings `_fillings(lengths, width, rules)` yields without
    listing them: a frontier DP over the same cells in the same order, with
    the same cell rules and column coverage.

    A state is (seen, lower, flag, fr, fc). `seen` is the mask of the
    columns holding a filled cell so far; its bit for the cursor's column
    says whether the cell above is covered, and once a column's bottom-most
    cell is passed the bit is always set. `lower` keeps, for the corner
    columns, whether a filled cell sits in row index >= 1. `flag` is 0 while
    the row has no filled cell, 1 when its only one is in column 0 and 2
    otherwise (rows without a corner use 2 for any). `fr`, `fc` count the
    filled cells of the first row and of the first column. A state's value is
    (fillings, AB, A1, 1B, OneOne): how many partial fillings reach it, and
    how many empty corners of each class (see `noc_class`) they hold in all.
    The corners are the last cells of the rows in `corner_rows`, each the
    bottom-most cell of its column.

    Returns {(fr, fc): (fillings, AB, A1, 1B, OneOne)} over the complete
    fillings."""
    last_row = _bottom_cells(lengths)
    corner_cols = 0
    for r in corner_rows:
        corner_cols |= 1 << (lengths[r] - 1)
    states = {(0, 0, 0, 0, 0): (1, 0, 0, 0, 0)}
    for r, lam in enumerate(lengths):
        corner = lam - 1 if r in corner_rows else -1
        for c in range(lam):
            bit = 1 << c
            cell = rules[r][c]
            must = last_row[r] & bit  # filled unless the column is covered
            end = c == lam - 1
            # what a filled cell here does to the flag, lower, fr and fc
            if end:
                flag_to = 0
            else:
                flag_to = 1 if c == 0 and corner >= 0 else 2
            lower_to = bit & corner_cols if r else 0
            dfr = 1 if r == 0 else 0
            dfc = 1 if c == 0 else 0
            nxt = {}
            get = nxt.get
            for key, val in states.items():
                seen, lower, flag, fr, fc = key
                may = cell[(2 if flag else 0) | (1 if seen & bit else 0)]
                if may & _EMPTY and not (must and not seen & bit):
                    if c == corner:
                        # column test: no filled cell in rows 1.. above it;
                        # row test: none left of it but in column 0
                        i = (3 if lower & bit else 1) + (1 if flag == 2 else 0)
                        v = list(val)
                        v[i] += v[0]
                        v = tuple(v)
                        to = (seen, lower & ~bit, 0, fr, fc)
                    else:
                        v = val
                        to = (seen, lower, 0, fr, fc) if end else key
                    old = get(to)
                    nxt[to] = v if old is None else tuple(map(add, old, v))
                if may & _FILLED:
                    low = lower & ~bit if c == corner else lower | lower_to
                    to = (seen | bit, low, flag_to, fr + dfr, fc + dfc)
                    old = get(to)
                    nxt[to] = val if old is None else tuple(map(add, old, val))
            states = nxt
    full = (1 << width) - 1
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for (seen, _, _, fr, fc), val in states.items():
        if seen == full:
            old = out.get((fr, fc))
            out[(fr, fc)] = val if old is None else tuple(map(add, old, val))
    return out


def tlt_filling_tallies(lengths: tuple[int, ...], width: int) -> dict:
    """The tree-like fillings of a shape, counted without listing them:
    {(first-row dots, first-column dots): (fillings, AB, A1, 1B, OneOne)},
    where the last four count the undotted corners of each class of
    `NOC_CLASSES` over those fillings. A corner is the last cell of a row
    that is also the bottom-most cell of its column."""
    last_row = _bottom_cells(lengths)
    corner_rows = frozenset(
        r for r, lam in enumerate(lengths) if lam and last_row[r] >> (lam - 1) & 1
    )
    return _tally_fillings(lengths, width, _tlt_rules(lengths), corner_rows)


def pt_filling_count(lengths: tuple[int, ...], width: int) -> int:
    """How many fillings `pt_fillings` yields for a shape, counted without
    listing them."""
    tallies = _tally_fillings(lengths, width, _pt_rules(lengths), ())
    return sum(val[0] for val in tallies.values())


def enumerate_tlt(n: int) -> Iterator[TreeLikeTableau]:
    """Every tree-like tableau of size n, once, in canonical order
    (paths lexicographic with S < W, then fillings row-major with
    empty < dot). There are n! of them."""
    if n < 1:
        raise ValueError("size must be positive")
    for steps in _tlt_paths(n):
        path = BorderPath(steps)
        for rows in tlt_fillings(path.row_lengths, path.num_cols):
            yield TreeLikeTableau(path, rows)


def enumerate_pt(n: int) -> Iterator[PermutationTableau]:
    """Every permutation tableau of length n, once, in canonical order.
    There are n! of them."""
    if n < 1:
        raise ValueError("length must be positive")
    for steps in _pt_paths(n):
        path = BorderPath(steps)
        for rows in pt_fillings(path.row_lengths, path.num_cols):
            yield PermutationTableau(path, rows)


def enumerate_nat(h: int, w: int) -> Iterator[NonAmbiguousTree]:
    """Every non-ambiguous tree of the exact height and width, once."""
    if h < 0 or w < 0:
        raise ValueError("height and width must be nonnegative")
    path = BorderPath(SOUTH * (h + 1) + WEST * (w + 1))
    for rows in tlt_fillings(path.row_lengths, path.num_cols):
        yield NonAmbiguousTree(TreeLikeTableau(path, rows))


# ---------------------------------------------------------------------------
# serialization

_CHARS = {TreeLikeTableau: ".o", PermutationTableau: "01"}
# binary digits to cell characters, one table per family
_ROW_TABLES = {cls: str.maketrans("01", chars) for cls, chars in _CHARS.items()}


def _path_and_lines(obj) -> tuple[str, list[str]]:
    if isinstance(obj, NonAmbiguousTree):
        obj = obj.tableau
    table = _ROW_TABLES[type(obj)]
    # a sentinel bit just past the row keeps its empty right-hand cells;
    # reversing the binary digits and dropping "0b1" puts cell 0 first
    lines = [
        bin(mask | 1 << lam)[:2:-1].translate(table)
        for mask, lam in zip(obj.rows, obj.path.row_lengths)
    ]
    return obj.path.steps, lines


def to_text(obj) -> str:
    """One path line then one line per row; dots are 'o', ones are '1'."""
    steps, lines = _path_and_lines(obj)
    return "\n".join([steps] + lines)


def _parse(text: str, cls):
    # rows of length zero are empty lines, so trailing blanks are data:
    # keep exactly as many row lines as the path demands, padding short input
    lines = text.split("\n")
    path = BorderPath(lines[0])
    body = lines[1:]
    need = path.num_rows
    while len(body) > need and body[-1] == "":
        body.pop()
    while len(body) < need:
        body.append("")
    if len(body) != need:
        raise ValueError(f"expected {need} row lines, got {len(body)}")
    empty, full = _CHARS[cls]
    rows = []
    for line, lam in zip(body, path.row_lengths):
        if len(line) != lam:
            raise ValueError(f"row line {line!r} should have length {lam}")
        mask = 0
        for c, ch in enumerate(line):
            if ch == full:
                mask |= 1 << c
            elif ch != empty:
                raise ValueError(f"bad character {ch!r} in row line")
        rows.append(mask)
    return cls(path, tuple(rows))


def parse_tlt(text: str) -> TreeLikeTableau:
    return _parse(text, TreeLikeTableau)


def parse_pt(text: str) -> PermutationTableau:
    return _parse(text, PermutationTableau)


def parse_nat(text: str) -> NonAmbiguousTree:
    return NonAmbiguousTree(parse_tlt(text))


def to_json_obj(obj) -> dict:
    steps, lines = _path_and_lines(obj)
    return {"path": steps, "rows": lines}


def to_json(obj) -> str:
    return json.dumps(to_json_obj(obj), separators=(",", ":"))
