"""Reference helpers that only the tests read.

The package keeps only what its commands, checks and maps run. These are
the views, counts, closed forms and brute-force definitions that the tests
read or hold the package against, kept in one place that several test
modules import.
"""

from math import comb, factorial
from typing import Iterator

from treelike.abpoly import A, B, BivarPoly, t_poly
from treelike.bijections import ColoredLetter, ColoredWord, _piece_paths
from treelike.core import (
    _EMPTY,
    _FILLED,
    _PT_RULES,
    _TLT_RULES,
    SOUTH,
    WEST,
    BorderPath,
    Cell,
    TreeLikeTableau,
    _cell_moves,
    _tlt_completions,
    _tlt_paths,
    first_row_points,
)
from treelike.counting import exact_div

# the two size-0 tableaux that corner cutting yields at the ends of a border
EMPTY_ROW_TABLEAU = TreeLikeTableau(BorderPath(SOUTH), (0,))
EMPTY_COL_TABLEAU = TreeLikeTableau(BorderPath(WEST), ())


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dot_cells(t: TreeLikeTableau) -> frozenset[Cell]:
    """The dots of a tableau as cells addressed by (row label, column label)."""
    cols_desc = sorted(t.path.col_labels, reverse=True)
    return frozenset(
        Cell(row_label, cols_desc[c])
        for row_label, mask in zip(t.path.row_labels, t.rows)
        for c in bits(mask)
    )


def filling_count(lengths: tuple[int, ...], width: int, dots: tuple | None = None) -> int:
    """How many fillings `tlt_fillings(lengths, width)` yields; with `dots`
    = (stat, d), how many of them have stat d: lane d of the count at the
    start of the completion table that rank and unrank walk."""
    stat, d = dots or (None, 0)
    _, lane, table = _tlt_completions(lengths, width, stat)
    return table[0][0][0] >> d * lane & ((1 << lane) - 1) if d >= 0 else 0


# ---------------------------------------------------------------------------
# per-path counts: the frontier DPs the surveys ran on each border path


def tlt_filling_tallies(lengths: tuple[int, ...], width: int) -> dict:
    """The tree-like fillings of a shape, counted without listing them:
    {(first-row dots, first-column dots): (fillings, AB, A1, 1B, OneOne)},
    where the last four count the undotted corners of each class of
    `NOC_CLASSES` over those fillings. A corner is the last cell of a row
    that is also the bottom-most cell of its column.

    A frontier DP over the moves of `_cell_moves`. A state key is one int:
    the walk's key (`seen`, the columns holding a filled cell, shifted left
    by one, and bit 0 set once the row holds one), the corner columns with
    a filled cell in row index >= 1 (`lower`, the same bits above `seen`),
    and a high bit set once the row holds a filled cell outside column 0
    (rows without a corner set it for any). A state's value is one int in
    fixed-width lanes: a block of five lanes (fillings, AB, A1, 1B, OneOne)
    per (first-row dots, first-column dots), the block of (fr, fc) at index
    (fr - 1) * n_fc + fc - 1, with n_fc first-column counts in all (from
    (0, 0) when row 0 has no cells, so no root). A lane holds how many partial fillings reach the state with that
    (fr, fc), or how many empty corners of one class (see `noc_class`) they
    hold in all. So a filled cell in row 0 or column 0 shifts the value up
    one block row or one block, merging states adds their values, and an
    empty corner adds every fillings lane to its class lane with one mask
    and one shift. A lane never holds more than 2^cells partial fillings
    times the corners, at most one per row, which fixes the lane width."""
    moves = _cell_moves(lengths, _TLT_RULES)
    # the corner rows, each with its corner's column bit
    corners: dict[int, int] = {}
    below = 0
    for r in range(len(lengths) - 1, -1, -1):
        if lengths[r] > below:
            below = lengths[r]
            corners[r] = 2 << (below - 1)
    corner_cols = sum(corners.values())
    lanes = sum(lengths) + len(lengths).bit_length()  # a row has at most one corner
    lane = (1 << lanes) - 1
    block = 5 * lanes
    base = 1 if lengths[0] else 0  # the root cell is always dotted
    n_fc = len(lengths) - lengths.count(0) + 1 - base  # first-column counts
    n_blocks = (lengths[0] + 1 - base) * n_fc
    # the fillings lane of every block
    fill = ((1 << block * n_blocks) - 1) // ((1 << block) - 1) * lane
    lower_shift = width + 1
    wide = 1 << 2 * width + 2  # the row holds a filled cell outside column 0
    flags = wide | 1
    states = {0: 1}
    for r, bit, may, end in moves:
        nxt: dict[int, int] = {}
        get = nxt.get
        # lower_bit: the cell is a corner (a row's last cell is one when the
        # row has a corner), as its column's lower bit
        lower_bit = bit << lower_shift if end and r in corners else 0
        if end:
            # the row's flags clear; at a corner also its column's lower bit
            keep = ~(flags | lower_bit)
            filled_set = bit
        else:
            keep = -1
            filled_set = bit | (1 if bit == 2 and r in corners else flags)
        if r and bit & corner_cols and not lower_bit:
            filled_set |= bit << lower_shift
        if r == 0:
            shift = 0 if bit == 2 else n_fc * block
        else:
            shift = block if bit == 2 else 0
        for key, v in states.items():
            ok = may[(key & 1) << 1 | (1 if key & bit else 0)]
            if ok & _EMPTY:
                to = key & keep
                if lower_bit:
                    # column test: no filled cell in rows 1.. above it;
                    # row test: none left of it but in column 0
                    i = (3 if key & lower_bit else 1) + (1 if key & wide else 0)
                    nxt[to] = get(to, 0) + v + ((v & fill) << i * lanes)
                else:
                    nxt[to] = get(to, 0) + v
            if ok & _FILLED:
                to = (key | filled_set) & keep
                nxt[to] = get(to, 0) + (v << shift)
        states = nxt
    # every lower bit clears at its corner and the flags at the last row end
    total = states.get(((1 << width) - 1) << 1, 0)
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    l2, l3, l4 = 2 * lanes, 3 * lanes, 4 * lanes
    for fr in range(base, lengths[0] + 1):
        for fc in range(base, base + n_fc):
            if total & lane:
                out[(fr, fc)] = (
                    total & lane,
                    total >> lanes & lane,
                    total >> l2 & lane,
                    total >> l3 & lane,
                    total >> l4 & lane,
                )
            total >>= block
    return out


def tlt_dot_counts(lengths: tuple[int, ...], width: int) -> dict[tuple[int, int], int]:
    """The tree-like fillings of a shape, counted without listing them:
    {(first-row dots, first-column dots): fillings}. A frontier DP over the
    moves of `_cell_moves` whose value holds a lane per (fr, fc), the lane
    of (fr, fc) at index (fr - base) * n_fc + fc - base (base 0 when row 0
    has no cells, so no root), so a filled cell in row 0 or column 0 shifts
    it up n_fc lanes or one. A lane counts at most 2^cells fillings. The
    offsets of `bijections._piece_paths` sum these per path, stat by stat;
    it tallies the first-row dots alone (`core.tlt_first_row_counts`) and
    reads the first-column dots off the transposed path."""
    moves = _cell_moves(lengths, _TLT_RULES)
    lanes = sum(lengths) + 1
    base = 1 if lengths[0] else 0
    n_fc = len(lengths) - lengths.count(0) + 1 - base
    states = {0: 1}
    for r, bit, may, end in moves:
        shift = (0 if bit == 2 else n_fc * lanes) if r == 0 else (lanes if bit == 2 else 0)
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
    lane = (1 << lanes) - 1
    out = {}
    for fr in range(base, lengths[0] + 1):
        for fc in range(base, base + n_fc):
            if total & lane:
                out[(fr, fc)] = total & lane
            total >>= lanes
    return out


def pt_filling_count(lengths: tuple[int, ...], width: int) -> int:
    """How many fillings `pt_fillings` yields for a shape, counted without
    listing them: a forward pass over the moves that keeps, per state key,
    how many partial fillings reach it."""
    counts = {0: 1}
    for _, bit, may, end in _cell_moves(lengths, _PT_RULES):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, n in counts.items():
            ok = may[(key & 1) << 1 | (1 if key & bit else 0)]
            if ok & _EMPTY:
                to = key & ~1 if end else key
                nxt[to] = get(to, 0) + n
            if ok & _FILLED:
                to = (key | bit) & ~1 if end else key | bit | 1
                nxt[to] = get(to, 0) + n
        counts = nxt
    return counts.get(((1 << width) - 1) << 1, 0)


def corner_positions(n: int, family: str) -> dict[int, int]:
    """{i: the corners in the row labelled i, over all tree-like tableaux
    of size n (`family` "tlt") or permutation tableaux of length n ("pt")}:
    each border path's filling count (`tlt_filling_tallies` or
    `pt_filling_count`) times its corner labels."""
    out: dict[int, int] = {}
    for steps in (s if family == "tlt" else s[:-1] for s in _tlt_paths(n)):
        path = BorderPath(steps)
        shape = (path.row_lengths, path.num_cols)
        if family == "tlt":
            count = sum(tally[0] for tally in tlt_filling_tallies(*shape).values())
        else:
            count = pt_filling_count(*shape)
        for cell in path.corner_cells:
            out[cell.row] = out.get(cell.row, 0) + count
    return out


def first_row_dist(n: int) -> dict[int, int]:
    """{d: the tree-like tableaux of size n with d first-row dots}, the
    totals of the prefix sums that `bijections._piece_paths(n)` keeps."""
    offsets = _piece_paths(n)[2]
    return {d: sums[-1] for (stat, d), sums in offsets.items() if stat is first_row_points}


def enumerate_colored_words(h: int, w: int) -> Iterator[ColoredWord]:
    """All valid words on the (h, w) alphabet, listed by backtracking in
    lexicographic order of letter keys (value first, unpointed before
    pointed): the order that `_word_rank` and `_word_unrank` count."""
    if h < 0 or w < 0:
        raise ValueError("bad alphabet")
    alphabet = sorted(
        [ColoredLetter(v, True) for v in range(h + 1)]
        + [ColoredLetter(v, False) for v in range(1, w + 1)],
        key=lambda l: (l.value, l.pointed),
    )
    total = len(alphabet)
    picked: list[ColoredLetter] = []
    used = [False] * total

    def rec() -> Iterator[ColoredWord]:
        if len(picked) == total:
            yield ColoredWord(tuple(picked), h, w)
            return
        last_slot = len(picked) == total - 1
        for idx, letter in enumerate(alphabet):
            if used[idx]:
                continue
            if last_slot and not letter.pointed:
                continue
            if picked and picked[-1].pointed == letter.pointed and picked[-1].value >= letter.value:
                continue
            used[idx] = True
            picked.append(letter)
            yield from rec()
            picked.pop()
            used[idx] = False

    yield from rec()


# ---------------------------------------------------------------------------
# the paper's closed forms that no check reads


def displacement_formula(n: int) -> int:
    """Total displacement over all permutations of [n]."""
    if n < 1:
        raise ValueError("size must be positive")
    return factorial(n - 1) * comb(n + 1, 3)


def corners_closed_form(n: int) -> BivarPoly:
    """Closed form for the weighted corner count, valid when the
    non-occupied conjecture holds."""
    if n < 3:
        raise ValueError("need n >= 3")
    inner = (
        A * A
        + B * B
        + (A * B).scale(n)
        + (A + B).scale(exact_div(n * n - n - 4, 2))
        + BivarPoly.const(exact_div((n + 2) * (n - 2) * (n - 3), 6))
    )
    return inner * t_poly(n - 2)


# ---------------------------------------------------------------------------
# permutation statistics, one permutation at a time


def ascent_values(p: tuple[int, ...]) -> set[int]:
    """Values whose right neighbour is larger, with a virtual n+1 after
    the last letter."""
    n = len(p)
    out = set()
    for j, v in enumerate(p):
        nxt = p[j + 1] if j + 1 < n else n + 1
        if nxt > v:
            out.add(v)
    return out


def cycle_count(p: tuple[int, ...]) -> int:
    n = len(p)
    seen = [False] * (n + 1)
    cnt = 0
    for s in range(1, n + 1):
        if seen[s]:
            continue
        cnt += 1
        j = s
        while not seen[j]:
            seen[j] = True
            j = p[j - 1]
    return cnt


def displacement(p: tuple[int, ...]) -> int:
    return sum(max(v - j, 0) for j, v in enumerate(p, start=1))


class PairLRU:
    """A reference for `bijections._TwoWayMemo`: the held pairs
    ((*c, x), y) in a list, least recently used first, searched from
    either side. A hit moves its pair to the end; a miss computes the image
    with f or g, appends the pair and drops the oldest past `maxsize`; an
    exception stores nothing."""

    def __init__(self, f, g, maxsize: int):
        self.maps, self.maxsize = (f, g), maxsize
        self.held: list = []
        self.hits = self.misses = 0

    def call(self, way: int, *key):
        # way 0 looks up (*c, x), way 1 looks up (*c, y)
        for i, (x, y) in enumerate(self.held):
            if (x, (*x[:-1], y))[way] == key:
                self.hits += 1
                self.held.append(self.held.pop(i))
                return (y, x[-1])[way]
        self.misses += 1
        image = self.maps[way](*key)
        pair = (key, image) if way == 0 else ((*key[:-1], image), key[-1])
        self.held = (self.held + [pair])[-self.maxsize :]
        return image
