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
from functools import cached_property, lru_cache
from itertools import product
from operator import getitem, rshift
from typing import Iterator, NamedTuple

SOUTH = "S"
WEST = "W"


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


@lru_cache(maxsize=4096)
def _interned_path(steps: str) -> BorderPath:
    """The one `BorderPath` with these steps, built and checked once and
    shared by every tableau and map that walks it."""
    if not steps:
        raise ValueError("empty step sequence")
    bad = set(steps) - {SOUTH, WEST}
    if bad:
        raise ValueError(f"invalid steps: {sorted(bad)!r}")
    rows = tuple(i + 1 for i, ch in enumerate(steps) if ch == SOUTH)
    cols = tuple(i + 1 for i, ch in enumerate(steps) if ch == WEST)
    lengths = tuple(len(cols) - bisect_right(cols, r) for r in rows)
    corners = tuple(
        Cell(i + 1, i + 2)
        for i in range(len(steps) - 1)
        if steps[i] == SOUTH and steps[i + 1] == WEST
    )
    # a corner is the last cell of its row
    positions = []
    for cell in corners:
        r = rows.index(cell.row)
        positions.append((r, lengths[r] - 1))
    path = object.__new__(BorderPath)
    path.__dict__.update(
        steps=steps,
        row_labels=rows,
        col_labels=cols,
        row_lengths=lengths,
        corner_cells=corners,
        corner_grid_positions=tuple(positions),
        col_mask=(1 << len(cols)) - 1,
    )
    return path


@dataclass(frozen=True, init=False)
class BorderPath:
    """Southeast border of a diagram, as a string over {S, W}.

    A path is one shared object per step string: `BorderPath(steps)` returns
    the instance that `_interned_path` built and checked for those steps
    (a bounded cache of 4,096 paths), and pickling or copying a path gives
    that instance back. Its `cache_info()` reads 96 misses of 11,821 calls
    after one `object-sweep` repetition, and 768 of 1,052,213 after the
    per-object checks at their `--long` ranges. Equality, hashing and repr
    use the steps alone, so a path built again after eviction equals the old
    one. The shape data are plain attributes:

    - `row_labels`: labels of the south steps, increasing = top to bottom;
    - `col_labels`: labels of the west steps, in increasing label order;
    - `row_lengths`: cells per row; row i holds the columns with labels
      above i;
    - `corner_cells`: the corners as (row label, column label);
    - `corner_grid_positions`: the corners as (row index, column index);
      each is the last cell of its row;
    - `col_mask`: one bit per column, `(1 << num_cols) - 1`;
    - `row_texts`: per family, each row's texts by mask, built at the first render.
    """

    steps: str

    def __new__(cls, steps: str):
        if not isinstance(steps, str):
            raise ValueError("steps must be a string")
        return _interned_path(steps)

    def __reduce__(self):
        return BorderPath, (self.steps,)

    @cached_property
    def row_texts(self) -> dict:
        return {
            cls: tuple(t[lam] if lam <= 8 else _LongRow(t[8], lam) for lam in self.row_lengths)
            for cls, t in _ROW_TABLES.items()
        }

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)

    def row_index(self, row_label: int) -> int:
        return self.row_labels.index(row_label)

    def col_index(self, col_label: int) -> int:
        # columns run left to right by decreasing label
        return len(self.col_labels) - bisect_right(self.col_labels, col_label)


@dataclass(frozen=True, init=False)
class TreeLikeTableau:
    """A dotted diagram: root dot, one-parent rule, full row/column coverage.

    Two degenerate size-0 values exist so that corner cutting is total: a
    single empty row (path "S") and a single empty column (path "W").
    The constructor checks path and rows as it writes them into `__dict__`,
    and puts `size`, the number of dots, beside them: not a field, so
    equality, hashing and repr see path and rows only. It comes from the
    path, not the rows: a valid tableau of n steps holds n - 1 dots.
    """

    path: BorderPath
    rows: tuple[int, ...]

    def __init__(self, path: BorderPath, rows: tuple[int, ...]):
        if not isinstance(path, BorderPath):
            raise ValueError("path must be a BorderPath")
        if not isinstance(rows, tuple):
            raise ValueError("rows must be a tuple")
        fields = self.__dict__
        fields["path"], fields["rows"] = path, rows
        steps = path.steps
        if steps == SOUTH:
            if rows != (0,):
                raise ValueError("single-row degenerate tableau must be empty")
            fields["size"] = 0
            return
        if steps == WEST:
            if rows != ():
                raise ValueError("single-column degenerate tableau must be empty")
            fields["size"] = 0
            return
        if steps[0] != SOUTH:
            raise ValueError("first step must be South")
        if steps[-1] != WEST:
            raise ValueError("last step must be West")
        lengths = path.row_lengths
        if len(rows) != len(lengths):
            raise ValueError("row count does not match path")
        try:  # a negative mask shifts to -1, so one pass finds it too
            if any(map(rshift, rows, lengths)):
                raise ValueError("dot outside its row")
        except TypeError:
            raise ValueError("row masks must be integers") from None
        above = rows[0]
        if not above & 1:
            raise ValueError("top-left root cell must be dotted")
        # a dot needs exactly one parent: every dot but the row's first has
        # one to its left, so the first needs a dot above it and the others
        # must not have one. Row 0 passes once its root is dotted.
        for r, mask in enumerate(rows[1:], 2):  # r: the row's number
            low = mask & -mask
            if not low & above or (mask ^ low) & above:
                if not mask:
                    raise ValueError(f"row {r} has no dot")
                if low & above:
                    bad, where = (mask ^ low) & above, "both a left and an above dot"
                else:
                    bad, where = low, "no parent dot"
                raise ValueError(
                    f"cell at row {r}, column index {(bad & -bad).bit_length() - 1} has {where}"
                )
            above |= mask
        if above != path.col_mask:
            raise ValueError("some column has no dot")
        # one parent per dot and full coverage leave rows + columns - 1 dots
        fields["size"] = len(steps) - 1

    @property
    def is_degenerate(self) -> bool:
        return self.size == 0


@dataclass(frozen=True, init=False)
class PermutationTableau:
    """A 0/1-filled diagram: every column holds a 1, and no 0 has a 1
    above it together with a 1 to its left. Rows of length zero are fine."""

    path: BorderPath
    rows: tuple[int, ...]  # bitmask of the 1s per row

    def __init__(self, path: BorderPath, rows: tuple[int, ...]):
        if not isinstance(path, BorderPath):
            raise ValueError("path must be a BorderPath")
        if not isinstance(rows, tuple):
            raise ValueError("rows must be a tuple")
        fields = self.__dict__
        fields["path"], fields["rows"] = path, rows
        if path.steps[0] != SOUTH:
            raise ValueError("first step must be South")
        lengths = path.row_lengths
        if len(rows) != len(lengths):
            raise ValueError("row count does not match path")
        try:  # a negative mask shifts to -1
            if any(map(rshift, rows, lengths)):
                raise ValueError("1 outside its row")
        except TypeError:
            raise ValueError("row masks must be integers") from None
        above = 0
        for r, (mask, lam) in enumerate(zip(rows, lengths)):
            # the 0-cells of the row that have a 1 above them and lie right
            # of the row's first 1
            bad = above & ~mask & -((mask & -mask) << 1) & ((1 << lam) - 1)
            if bad:
                c = (bad & -bad).bit_length() - 1
                raise ValueError(
                    f"cell at row {r + 1}, column index {c} is 0 with a 1 above and a 1 to its left"
                )
            above |= mask
        if above != path.col_mask:
            raise ValueError("some column has no 1")


@dataclass(frozen=True, init=False)
class NonAmbiguousTree:
    """A rectangular tree-like tableau; height/width count rows/columns minus one."""

    tableau: TreeLikeTableau

    def __init__(self, tableau: TreeLikeTableau):
        if tableau.is_degenerate:
            raise ValueError("tree must have at least one dot")
        if len(set(tableau.path.row_lengths)) != 1:
            raise ValueError("shape is not rectangular")
        self.__dict__["tableau"] = tableau

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
    cor = len(t.path.corner_cells)
    occ = sum(t.rows[r] >> c & 1 for r, c in t.path.corner_grid_positions)
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


# the classes of `noc_class`, at (column test fails) * 2 + (row test fails)
NOC_CLASSES = ("AB", "A1", "1B", "OneOne")


def noc_class(t: TreeLikeTableau, c: Cell) -> str:
    """Classify an undotted corner by where the dots of its row and column sit.

    Column test: every dot above the corner in its column is in row 1.
    Row test: every dot to the corner's left in its row is in the first
    column. Both, only the column test, only the row test, or neither give
    AB, A1, 1B, OneOne respectively.
    """
    if c not in t.path.corner_cells:
        raise ValueError(f"{c} is not a corner")
    row, col = c  # by position, so a plain (row, col) pair works too
    r = t.path.row_index(row)
    ci = t.path.col_index(col)
    if (t.rows[r] >> ci) & 1:
        raise ValueError(f"{c} is an occupied corner")
    return _noc_class_at(t.rows, r, ci)


def _noc_class_at(rows: tuple[int, ...], r: int, c: int) -> str:
    # the class of the undotted corner at row index r, column index c
    col_ok = not any((rows[rr] >> c) & 1 for rr in range(1, r))
    row_ok = rows[r] & ~1 == 0
    return NOC_CLASSES[(0 if col_ok else 2) + (0 if row_ok else 1)]


def transpose(t: TreeLikeTableau) -> TreeLikeTableau:
    """Reflect across the main diagonal; swaps rows with columns."""
    steps = transpose_steps(t.path.steps)
    return TreeLikeTableau(BorderPath(steps), transpose_bits(t.rows, t.path.num_cols))


def transpose_steps(steps: str) -> str:
    """The border steps of the reflected diagram: reversed, S and W swapped."""
    return "".join(SOUTH if ch == WEST else WEST for ch in reversed(steps))


def transpose_bits(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Row bitmasks of the reflected filling: bit r of row c is set when
    bit c of row r is."""
    out = [0] * width
    for r, mask in enumerate(rows):
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= 1 << r
            mask ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration


def _tlt_paths(n: int) -> Iterator[str]:
    # lexicographic with S < W; first step S and last step W are forced
    for inner in product(SOUTH + WEST, repeat=n - 1):
        yield SOUTH + "".join(inner) + WEST


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
# a family's rules: (top-left cell, any other cell, last cell of a row)
_TLT_RULES = (_TLT_ROOT, _TLT_CELL, _TLT_ROW_END)
_PT_RULES = (_PT_CELL,) * 3


@lru_cache(maxsize=4096)
def _cell_moves(lengths: tuple[int, ...], rules: tuple) -> tuple:
    """The cells of a shape in row-major order, each as a move (r, bit, may,
    end) of a walk over its fillings under a family's `rules`. Every walk
    reads these moves, so the cell rules and column coverage are applied
    here alone.

    The walk's state key is (seen << 1) | flag: `seen` is the mask of the
    columns holding a filled cell so far and `flag` says whether the current
    row holds one. `r` is the cell's row and `bit` its column's bit in the
    key. `may` is the cell's rule, indexed by flag * 2 + (key & bit != 0),
    with column coverage folded in: the bottom-most cell of a column with no
    filled cell above it must be filled. `end` marks the last cell of a row.
    An empty cell keeps the key, a filled one sets `bit | 1`, and `end`
    then clears the flag; the complete fillings end at key `full << 1`."""
    if not lengths:
        raise ValueError("a shape needs at least one row")
    root, cell, row_end = rules
    moves = []
    for r, lam in enumerate(lengths):
        below = max(lengths[r + 1 :], default=0)  # the columns later rows reach
        for c in range(lam):
            may = root if r == c == 0 else row_end if c == lam - 1 else cell
            if c >= below:
                may = (may[0] & _FILLED, may[1], may[2] & _FILLED, may[3])
            moves.append((r, 2 << c, may, c == lam - 1))
    return tuple(moves)


def _fillings(lengths: tuple[int, ...], width: int, rules: tuple) -> Iterator[tuple[int, ...]]:
    """Row-major fillings, empty before filled, where a family's `rules` say
    what each cell may hold and every column must end up holding a filled
    cell. Yields one bitmask per row.

    A depth-first walk over the moves of `_cell_moves` that always takes the
    empty branch first and keeps the filled branches it passed on a stack,
    so a filling is yielded straight from this frame and not up a chain of
    generators. Rows without cells have no moves and stay 0."""
    moves = _cell_moves(lengths, rules)
    stop, done = len(moves), ((1 << width) - 1) << 1
    rows = [0] * len(lengths)
    pending = []  # filled branches not yet taken: (p, key, mask)
    p = key = mask = 0  # mask: the current row's filled cells, as key bits
    while True:
        if p == stop:
            if key == done:
                yield tuple(rows)
            ok = 0
        else:
            r, bit, may, end = moves[p]
            ok = may[(key & 1) << 1 | (1 if key & bit else 0)]
            if ok == _EITHER:
                pending.append((p, key, mask))
        if not ok:
            if not pending:
                return
            p, key, mask = pending.pop()
            r, bit, _, end = moves[p]
            ok = _FILLED
        if ok == _FILLED:
            mask |= bit
            key |= bit | 1
        p += 1
        if end:
            rows[r] = mask >> 1
            key &= ~1
            mask = 0


def tlt_fillings(lengths: tuple[int, ...], width: int) -> Iterator[tuple[int, ...]]:
    """All valid dot placements for a tree-like shape, in row-major order
    with empty before dot. Yields one bitmask per row."""
    yield from _fillings(lengths, width, _TLT_RULES)


def pt_fillings(lengths: tuple[int, ...], width: int) -> Iterator[tuple[int, ...]]:
    """All valid 0/1 fillings for a permutation-tableau shape, row-major,
    0 before 1."""
    yield from _fillings(lengths, width, _PT_RULES)


@lru_cache(maxsize=2048)
def _tlt_completions(lengths: tuple[int, ...], width: int, stat=None) -> tuple:
    """(cells, lane, total, complete) for the tree-like fillings of a
    shape, one per shape and statistic: `stat` `first_row_points` or
    `first_col_points` counts the dots of the first row or the first
    column, None counts none.

    The walk's states before each cell are numbered from 0, the start
    state. `cells` holds, per cell move of `_cell_moves`, (r, bit, counted,
    after, n_empty, empty, filled): whether stat counts the cell's dot, how
    many counted cells follow it, and three lists by state number: the
    fillings that leave the cell empty, and the state numbers after the
    empty and the filled branch, -1 where the cell's rule forbids that
    branch. A count holds lane j (`lane` bits from j * lane up) for the
    fillings that complete with j more counted dots; `total` is the count
    from the start, and `complete` numbers the one final state with a dot
    in every column, -1 when no filling has one. One forward pass numbers
    the states and their successors and one backward pass counts, shifting
    the filled branch up a lane at a counted cell, so rank and unrank only
    index lists. A lane counts at most 2^cells fillings."""
    moves = _cell_moves(lengths, _TLT_RULES)
    counted = [
        (stat is first_row_points and r == 0) or (stat is first_col_points and bit == 2)
        for r, bit, _, _ in moves
    ]
    after = sum(counted)
    cells = []
    states = {0: 0}  # the keys before the cell, by number
    for (r, bit, may, end), c in zip(moves, counted):
        after -= c
        number: dict = {}
        empty, filled = [], []
        for key in states:
            ok = may[(key & 1) << 1 | (1 if key & bit else 0)]
            to = key & ~1 if end else key
            empty.append(number.setdefault(to, len(number)) if ok & _EMPTY else -1)
            to = (key | bit) & ~1 if end else key | bit | 1
            filled.append(number.setdefault(to, len(number)) if ok & _FILLED else -1)
        cells.append((r, bit, c, after, empty, filled))
        states = number
    done = ((1 << width) - 1) << 1
    lane = len(moves) + 1
    # counts by state number, with a trailing 0 that a forbidden branch's -1 reads
    n = [int(key == done) for key in states] + [0]
    for p in range(len(cells) - 1, -1, -1):
        r, bit, c, after, empty, filled = cells[p]
        n_empty = [n[e] for e in empty]
        n = [m + (n[f] << lane * c) for m, f in zip(n_empty, filled)] + [0]
        cells[p] = (r, bit, c, after, n_empty, empty, filled)
    return tuple(cells), lane, n[0], states.get(done, -1)


def filling_rank(
    lengths: tuple[int, ...], width: int, rows: tuple[int, ...], dots: tuple | None = None
) -> int:
    """The position of a filling among `tlt_fillings(lengths, width)`,
    counted from 0, found by summing the completions of every empty branch
    the filling passes over. With `dots` = (stat, d) only the fillings with
    stat d count: each cell reads the lane of the counted dots still to
    place, and a branch that leaves more than d of them, or too few counted
    cells to reach d, counts as forbidden. The walk carries the number of
    its state in `_tlt_completions`. Raises ValueError when the tree-like
    rules reject the filling, or when its stat is not d."""
    stat, d = dots or (None, 0)  # from here on, d counts the dots still to place
    if d and stat is None:
        raise ValueError(f"{d} dots asked for with no statistic to count them")
    cells, lane, _, complete = _tlt_completions(lengths, width, stat)
    if len(rows) != len(lengths):
        raise ValueError("row count does not match the shape")
    # a negative mask shifts to -1, so one pass finds it too
    if any(map(rshift, rows, lengths)):
        raise ValueError("dot outside its row")
    mask = (1 << lane) - 1
    rank = s = 0
    for r, bit, counted, after, n_empty, empty, filled in cells:
        if rows[r] << 1 & bit:
            if filled[s] < 0 or counted and not 0 < d <= after + 1:
                raise ValueError(
                    f"cell at row {r + 1}, column index {bit.bit_length() - 2} may not hold a dot"
                )
            rank += n_empty[s] >> d * lane & mask
            s = filled[s]
            d -= counted
        elif empty[s] < 0 or counted and d > after:
            raise ValueError(
                f"cell at row {r + 1}, column index {bit.bit_length() - 2} must hold a dot"
            )
        else:
            s = empty[s]
    if d or s != complete:
        raise ValueError("some column has no dot")
    return rank


def filling_unrank(
    lengths: tuple[int, ...], width: int, index: int, dots: tuple | None = None
) -> tuple[int, ...]:
    """The filling at position `index` of `tlt_fillings(lengths, width)`,
    or of those with stat d when `dots` = (stat, d), one bitmask per row,
    built cell by cell from the state numbers of `_tlt_completions`: the
    empty branch when `index` is below the number of fillings through it
    with the counted dots still to place, else a dot, with those fillings
    skipped."""
    stat, d = dots or (None, 0)  # from here on, d counts the dots still to place
    if d and stat is None:
        raise ValueError(f"{d} dots asked for with no statistic to count them")
    cells, lane, total, _ = _tlt_completions(lengths, width, stat)
    mask = (1 << lane) - 1
    if d < 0 or not 0 <= index < total >> d * lane & mask:
        raise ValueError(f"no filling at index {index}")
    rows = [0] * len(lengths)
    s = 0
    for r, bit, counted, _, n_empty, empty, filled in cells:
        n = n_empty[s] >> d * lane & mask
        if index < n:
            s = empty[s]
        else:
            index -= n
            rows[r] |= bit >> 1
            s = filled[s]
            d -= counted
    return tuple(rows)


def tlt_first_row_counts(lengths: tuple[int, ...], width: int) -> dict[int, int]:
    """The tree-like fillings of a shape, counted without listing them:
    {first-row dots: fillings}. A frontier DP over the moves of
    `_cell_moves` whose value holds a lane per first-row count, so a filled
    cell in row 0 shifts it up one lane. A lane counts at most 2^cells
    fillings. The first-column counts of a shape are the first-row counts
    of its transpose (`transpose_steps`)."""
    moves = _cell_moves(lengths, _TLT_RULES)
    lane = len(moves) + 1
    states = {0: 1}
    for r, bit, may, end in moves:
        shift = 0 if r else lane
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, v in states.items():
            ok = may[(key & 1) << 1 | (1 if key & bit else 0)]
            if ok & _EMPTY:
                to = key & ~1 if end else key
                nxt[to] = get(to, 0) + v
            if ok & _FILLED:
                to = (key | bit) & ~1 if end else key | bit | 1
                nxt[to] = get(to, 0) + (v << shift)
        states = nxt
    total = states.get(((1 << width) - 1) << 1, 0)
    counts = {fr: total >> fr * lane & (1 << lane) - 1 for fr in range(lengths[0] + 1)}
    return {fr: count for fr, count in counts.items() if count}


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
    # column deletion: a permutation tableau's border is a tree-like border
    # without its last W
    for steps in _tlt_paths(n):
        path = BorderPath(steps[:-1])
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
# per family and row length 0-8, the text of each mask; [::-1] puts bit 0 first
_ROW_TABLES = {
    cls: tuple(tuple("".join(p)[::-1] for p in product(chars, repeat=lam)) for lam in range(9))
    for cls, chars in _CHARS.items()
}


@dataclass(frozen=True)
class _LongRow:
    """A row table for over 8 cells: a mask's text joins its 8-cell chunks' texts."""

    table: tuple[str, ...]  # the family's 8-cell table
    cells: int

    def __getitem__(self, mask: int) -> str:
        return "".join([self.table[mask >> c & 255] for c in range(0, self.cells, 8)])[: self.cells]


def _lines(obj) -> list[str]:
    if isinstance(obj, NonAmbiguousTree):
        obj = obj.tableau
    path = obj.path
    return [path.steps, *map(getitem, path.row_texts[type(obj)], obj.rows)]


def to_text(obj) -> str:
    """One path line then one line per row; dots are 'o', ones are '1'."""
    return "\n".join(_lines(obj))


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


def to_json(obj) -> str:
    steps, *rows = _lines(obj)
    return json.dumps({"path": steps, "rows": rows}, separators=(",", ":"))
