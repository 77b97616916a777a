"""Maps between the tableau families and their permutation-side images.

The column-deletion map and its inverse pair tree-like tableaux of size n
with permutation tableaux of length n. Cutting at a corner splits a
tableau into a left piece, a right piece and a rectangular middle; gluing
reverses it. The corner-to-run map composes cutting with a rank-preserving
recoding through cycle forms and colored words, landing on permutations
with a marked run of size 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict, defaultdict, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import NamedTuple

from .core import (
    SOUTH,
    WEST,
    BorderPath,
    Cell,
    NonAmbiguousTree,
    PermutationTableau,
    TreeLikeTableau,
    _tlt_paths,
    enumerate_nat,  # noqa: F401 -- unused here; bench/rep.py wraps it under this name
    enumerate_tlt,  # noqa: F401 -- unused here; bench/rep.py wraps it under this name
    filling_rank,
    filling_unrank,
    first_col_points,
    first_row_points,
    tlt_first_row_counts,
    transpose_bits,
    transpose_steps,
)
from .counting import is_run_of_size_1, stirling_row

# ---------------------------------------------------------------------------
# column deletion


def tlt_to_pt(t: TreeLikeTableau) -> PermutationTableau:
    """Delete the leftmost column, turning dots into a 0/1 filling.

    A column's topmost dot becomes a 1, every other dot a 0. An empty cell
    becomes 0 when some dot-0 sits to its right in its row or its column's
    topmost dot sits strictly below it; otherwise it becomes 1.
    """
    if t.is_degenerate:
        raise ValueError("no column to delete in a size-0 tableau")
    path = t.path
    new_rows = []
    seen = 0  # the columns holding a dot in the rows so far
    for mask, lam in zip(t.rows, path.row_lengths):
        below = mask & seen  # the dots with a dot above them: the dot-0s
        seen |= mask
        # empty cells of dotted columns right of the last dot-0 become 1s
        free = seen & ~mask & -(1 << below.bit_length()) & ((1 << lam) - 1)
        new_rows.append((mask & ~below | free) >> 1)
    return PermutationTableau(BorderPath(path.steps[:-1]), tuple(new_rows))


def pt_to_tlt(p: PermutationTableau) -> TreeLikeTableau:
    """Grow back the leftmost column. Topmost 1s become dots; each row adds
    one dot at its rightmost restricted 0, or in the new column if it has
    none."""
    path = p.path
    new_rows = []
    above = 0  # the columns holding a 1 in the rows so far
    for mask, lam in zip(p.rows, path.row_lengths):
        # a restricted 0 has a 1 above it; one past the rightmost is its
        # column once the new column is put in front, and 0 when there is none
        spot = (above & ~mask & ((1 << lam) - 1)).bit_length()
        new_rows.append((mask & ~above) << 1 | 1 << spot)
        above |= mask
    return TreeLikeTableau(BorderPath(path.steps + WEST), tuple(new_rows))


def corner_transfer_delta(t: TreeLikeTableau) -> int:
    """Corners lost by deleting the leftmost column: 1 when border step n
    is South, else 0."""
    n = t.size
    if n < 1:
        raise ValueError("size must be positive")
    return 1 if t.path.steps[n - 1] == SOUTH else 0


# ---------------------------------------------------------------------------
# cutting and gluing at a corner


def _gather(mask: int, sel: int) -> int:
    # the bits of the mask at the set bits of sel, packed low in order
    if not sel & (sel + 1):  # sel is the low bits: nothing moves
        return mask & sel
    out = j = 0
    while sel:
        low = sel & -sel
        if mask & low:
            out |= 1 << j
        j += 1
        sel ^= low
    return out


def _scatter(mask: int, sel: int) -> int:
    # inverse of _gather: bit j of the mask moves to the j-th set bit of sel
    if not sel & (sel + 1):
        return mask & sel
    out = 0
    while mask:
        low = sel & -sel
        if mask & 1:
            out |= low
        mask >>= 1
        sel ^= low
    return out


def _cut(t: TreeLikeTableau, corner: Cell) -> tuple[tuple, tuple, tuple]:
    # cut_at_corner on rows, nothing validated: each piece as (steps, rows),
    # the tree as (h, w, rows), the _TREES key: h is its width, the left
    # piece's first-row dots, and w its height, the right piece's first-column
    # dots (the corner's column and row, always dotted, are not counted)
    path, rows = t.path, t.rows
    try:
        r, w_l = path.corner_grid_positions[path.corner_cells.index(corner)]
    except ValueError:
        raise ValueError(f"{corner} is not a corner") from None
    i = corner[0]  # by position, so a plain (row, col) pair works too
    # the rectangle: the rows down to the corner's, cut to the columns up to
    # the corner's; the corner ends its row and its column
    low = (2 << w_l) - 1
    rect = [m & low for m in rows[: r + 1]]
    used = 0
    for m in rect:
        used |= m

    # at i = n and at i = 1 these are the two size-0 pieces
    left = (SOUTH + path.steps[i + 1 :], (used & (low >> 1),) + rows[r + 1 :])
    right = (
        path.steps[: i - 1] + WEST,
        tuple([(row >> w_l + 1) << 1 | (1 if row & low else 0) for row in rows[:r]]),
    )
    nat_rows = tuple([_gather(m, used) for m in rect if m])
    return left, right, (used.bit_count() - 1, len(nat_rows) - 1, nat_rows)


def cut_at_corner(
    t: TreeLikeTableau, corner: Cell
) -> tuple[TreeLikeTableau, TreeLikeTableau, NonAmbiguousTree]:
    """Split at corner (i, i+1) into the part below, the part to the right,
    and the rectangle above-left of the corner squeezed to a tree.

    The left piece keeps the rows after i behind a fresh first row marking
    which of its columns met the rectangle; the right piece keeps the
    columns before i behind a fresh first column marking the rows that met
    it. Either piece may be one of the two size-0 tableaux. Each part is
    built by its validating constructor.
    """
    (steps_l, rows_l), (steps_r, rows_r), (h, w, rows_t) = _cut(t, corner)
    return (
        TreeLikeTableau(BorderPath(steps_l), rows_l),
        TreeLikeTableau(BorderPath(steps_r), rows_r),
        NonAmbiguousTree(TreeLikeTableau(BorderPath(SOUTH * (w + 1) + WEST * (h + 1)), rows_t)),
    )


def _glue(left: tuple, right: tuple, tree: tuple) -> tuple[TreeLikeTableau, Cell]:
    # glue on rows: the pieces as (steps, rows), the tree as _cut's (h, w,
    # rows), here (width, height, rows); only the result is validated
    (steps_l, rows_l), (steps_r, rows_r), (width, height, rows_t) = left, right, tree
    if steps_l == WEST:
        raise ValueError("degenerate left piece must be the empty-row tableau")
    if steps_r == SOUTH:
        raise ValueError("degenerate right piece must be the empty-column tableau")
    fr_l = first_row_points(rows_l)
    fc_r = first_col_points(rows_r)
    if width != fr_l:
        raise ValueError(f"tree width {width} does not match left first-row dots {fr_l}")
    if height != fc_r:
        raise ValueError(f"tree height {height} does not match right first-column dots {fc_r}")
    i = len(steps_r)  # the right piece has size i - 1
    w_l = steps_l.count(WEST)
    # the tree's columns are the left piece's first-row dots and column w_l;
    # its rows go to the right piece's rows with a first-column dot, then
    # to the corner's row
    sel = rows_l[0] | 1 << w_l
    rows = iter(rows_t)
    masks = [(_scatter(next(rows), sel) if row & 1 else 0) | (row >> 1) << w_l + 1 for row in rows_r]
    masks.append(_scatter(next(rows), sel))
    masks += rows_l[1:]
    steps = steps_r[:-1] + SOUTH + WEST + steps_l[1:]
    return TreeLikeTableau(BorderPath(steps), tuple(masks)), Cell(i, i + 1)


def glue(
    t_l: TreeLikeTableau, t_r: TreeLikeTableau, nat: NonAmbiguousTree
) -> tuple[TreeLikeTableau, Cell]:
    """Inverse of cutting: rebuild the tableau and report its cut corner.
    The parts arrive validated; the rebuilt tableau goes through its
    validating constructor."""
    left, right = (t_l.path.steps, t_l.rows), (t_r.path.steps, t_r.rows)
    return _glue(left, right, (nat.width, nat.height, nat.tableau.rows))


# ---------------------------------------------------------------------------
# colored words and cycle forms


class ColoredLetter(NamedTuple):
    value: int
    pointed: bool

    @property
    def token(self) -> str:
        return f"{self.value}*" if self.pointed else str(self.value)


@lru_cache(maxsize=1024)
def _letter(value: int, pointed: bool) -> ColoredLetter:
    # letters are immutable, so the maps share one per (value, pointed)
    return ColoredLetter(value, pointed)


@dataclass(frozen=True, init=False)
class ColoredWord:
    """An arrangement of pointed letters 0..h and unpointed letters 1..w.

    The constructor checks the alphabet only; `_valid_word` checks the order
    conditions, which the block-swap map deliberately breaks.
    """

    letters: tuple[ColoredLetter, ...]
    h: int
    w: int

    def __init__(self, letters: tuple[ColoredLetter, ...], h: int, w: int):
        if not isinstance(letters, tuple):
            raise ValueError("letters must be a tuple")
        pointed = sorted(l.value for l in letters if l.pointed)
        plain = sorted(l.value for l in letters if not l.pointed)
        if h < 0 or pointed != list(range(h + 1)):
            raise ValueError(f"pointed letters must be exactly 0..{h}")
        if plain != list(range(1, w + 1)):
            raise ValueError(f"unpointed letters must be exactly 1..{w}")
        fields = self.__dict__
        fields["letters"], fields["h"], fields["w"] = letters, h, w

    def text(self) -> str:
        return " ".join(l.token for l in self.letters)


def _valid_word(letters: tuple[ColoredLetter, ...]) -> bool:
    """The order conditions of a word: its last letter is pointed, and
    consecutive letters of one kind increase."""
    if not letters[-1].pointed:
        return False
    for x, y in zip(letters, letters[1:]):
        if x.pointed == y.pointed and x.value >= y.value:
            return False
    return True


def parse_colored_word(s: str) -> ColoredWord:
    letters = tuple(
        ColoredLetter(int(tok[:-1]), True) if tok.endswith("*") else ColoredLetter(int(tok), False)
        for tok in s.split()
    )
    if not letters:
        raise ValueError("empty word")
    h = sum(l.pointed for l in letters) - 1
    return ColoredWord(letters, h, len(letters) - h - 1)


# The valid words on the (h, w) alphabet are ordered lexicographically by
# letter keys (value first, unpointed before pointed); `_word_rank` and
# `_word_unrank` count positions in that order without listing the words.
#
# Counting words by their state. After a letter, what a valid word may still
# do depends on a (pointed letters left), b (unpointed letters left), the
# kind of the last letter, and m, how many letters of that kind left are
# larger than it: the next letter is any letter of the other kind or one of
# those m. A word that has just started behaves as after a pointed letter
# smaller than all, so m = a.


@lru_cache(maxsize=128)
def _word_counts(h: int, w: int) -> list:
    """table[a][b] = (pointed, unpointed) for a <= h + 1, b <= w: prefix
    sums over m of the completions after a pointed or unpointed last letter,
    so that entry m + 1 minus entry m counts the completions in state
    (a, b, kind, m)."""
    table: list = [[None] * (w + 1) for _ in range(h + 2)]
    table[0][0] = ([0, 1], [0, 0])  # the word is complete: valid if it ended pointed
    for a in range(h + 2):
        for b in range(w + 1):
            if not a + b:
                continue
            # after a pointed letter: any unpointed one or one of the m
            # larger pointed ones; after an unpointed letter: one of the m
            # larger unpointed ones or any pointed one
            to_u = table[a][b - 1][1] if b else [0]
            to_p = table[a - 1][b][0] if a else [0]
            pointed = accumulate((to_u[b] + to_p[m] for m in range(a + 1)), initial=0)
            unpointed = accumulate((to_u[m] + to_p[a] for m in range(b + 1)), initial=0)
            table[a][b] = (list(pointed), list(unpointed))
    return table


def count_colored_words(h: int, w: int) -> int:
    """How many valid words the (h, w) alphabet has."""
    if h < 0 or w < 0:
        raise ValueError("bad alphabet")
    pointed = _word_counts(h, w)[h + 1][w][0]
    return pointed[h + 2] - pointed[h + 1]


def _word_rank(h: int, w: int, letters: tuple[ColoredLetter, ...]) -> int:
    """The position of the letters of a word among the valid words on the
    (h, w) alphabet in letter-key order, counted from 0: at each letter, the
    valid words that agree with it before that letter and have an earlier
    letter there. Raises ValueError unless the letters are a valid word."""
    table = _word_counts(h, w)
    pointed = list(range(h + 1))
    plain = list(range(1, w + 1))
    last, last_pointed = -1, True
    rank = 0
    for value, is_pointed in letters:
        if is_pointed == last_pointed and value <= last:
            raise ValueError("not a valid colored word")
        a, b = len(pointed), len(plain)
        # smaller keys come first: lower values, and unpointed before pointed
        lo = bisect_right(pointed, last) if last_pointed else 0
        hi = bisect_left(pointed, value)
        if lo < hi:
            sums = table[a - 1][b][0]
            rank += sums[a - lo] - sums[a - hi]
        lo = 0 if last_pointed else bisect_right(plain, last)
        hi = bisect_right(plain, value) if is_pointed else bisect_left(plain, value)
        if lo < hi:
            sums = table[a][b - 1][1]
            rank += sums[b - lo] - sums[b - hi]
        left = pointed if is_pointed else plain
        if value not in left:  # used already, or not in the alphabet
            raise ValueError("not a valid colored word")
        left.remove(value)
        last, last_pointed = value, is_pointed
    if pointed or plain or not last_pointed:
        raise ValueError("not a valid colored word")
    return rank


def _word_unrank(h: int, w: int, index: int) -> tuple[ColoredLetter, ...]:
    """The letters of the valid word at position `index` in letter-key
    order, counted from 0; ValueError when there is none."""
    if not 0 <= index < count_colored_words(h, w):
        raise ValueError(f"no colored word at index {index}")
    table = _word_counts(h, w)
    pointed = list(range(h + 1))
    plain = list(range(1, w + 1))
    last, last_pointed = -1, True
    letters = []
    while pointed or plain:
        a, b = len(pointed), len(plain)
        i = bisect_right(pointed, last) if last_pointed else 0
        j = 0 if last_pointed else bisect_right(plain, last)
        # the completions after an unpointed or a pointed letter
        after_u = table[a][b - 1][1] if b else None
        after_p = table[a - 1][b][0] if a else None
        # walk the letters that may come next in key order, skipping whole
        # subtrees of words until the index falls inside one
        while True:
            if j < b and (i == a or plain[j] <= pointed[i]):
                n = after_u[b - j] - after_u[b - j - 1]
                if index < n:
                    last, last_pointed = plain.pop(j), False
                    break
                j += 1
            else:
                n = after_p[a - i] - after_p[a - i - 1]
                if index < n:
                    last, last_pointed = pointed.pop(i), True
                    break
                i += 1
            index -= n
        letters.append(_letter(last, last_pointed))
    return tuple(letters)


@dataclass(frozen=True, init=False)
class CycleForm:
    """Cycles written largest element first, listed by increasing maxima."""

    cycles: tuple[tuple[int, ...], ...]

    def __init__(self, cycles: tuple[tuple[int, ...], ...]):
        if not isinstance(cycles, tuple):
            raise ValueError("cycles must be a tuple")
        seen = sorted(chain.from_iterable(cycles))
        if seen != list(range(1, len(seen) + 1)):
            raise ValueError("cycles must partition 1..m")
        prev = 0
        for cyc in cycles:
            if not cyc or cyc[0] != max(cyc):
                raise ValueError("each cycle must start with its maximum")
            if cyc[0] <= prev:
                raise ValueError("cycle maxima must increase")
            prev = cyc[0]
        self.__dict__["cycles"] = cycles

    def text(self) -> str:
        return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in self.cycles)


def _cycles(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The cycles of a permutation of 1..n in the order of `CycleForm`."""
    seen = [False] * (len(p) + 1)
    cycles = []
    for s in range(len(p), 0, -1):  # a cycle is first met at its maximum
        cyc = []
        while not seen[s]:
            seen[s] = True
            cyc.append(s)
            s = p[s - 1]
        if cyc:
            cycles.append(tuple(cyc))
    return tuple(reversed(cycles))


def _permutation(cycles: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The permutation whose cycles these are, the inverse of `_cycles`."""
    out = [0] * sum(map(len, cycles))
    for cyc in cycles:
        prev = cyc[-1]
        for v in cyc:
            out[prev - 1] = v
            prev = v
    return tuple(out)


def parse_cycle_form(s: str) -> CycleForm:
    s = s.strip()
    if not s:
        return CycleForm(())
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad cycle form {s!r}")
    inner = s[1:-1].split(")(")
    cycles = []
    for part in inner:
        vals = tuple(int(x) for x in part.split())
        if not vals:
            raise ValueError("empty cycle")
        cycles.append(vals)
    return CycleForm(tuple(cycles))


@dataclass(frozen=True, init=False)
class MarkedRun:
    """A permutation with a marked position that is a run of size 1:
    strictly between larger-left and smaller-right, with sentinels n+1
    before the word and 0 after it."""

    perm: tuple[int, ...]
    k: int

    def __init__(self, perm: tuple[int, ...], k: int):
        if not isinstance(perm, tuple):
            raise ValueError("perm must be a tuple")
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..n")
        if not 1 <= k <= n:
            raise ValueError(f"mark {k} out of range")
        if not is_run_of_size_1(perm, k):
            raise ValueError(f"position {k} is not a run of size 1")
        fields = self.__dict__
        fields["perm"], fields["k"] = perm, k


# ---------------------------------------------------------------------------
# the block swap


# every word holds it: the constructor checks the pointed letters 0..h
_POINTED_0 = ColoredLetter(0, True)


def m_star(letters: tuple[ColoredLetter, ...]) -> tuple[ColoredLetter, ...]:
    """The block swap on the letters of a word, an involution: swap each
    block pair after the pointed 0. A word ending pointed whose pointed 0 is
    last or followed by a pointed letter is left as it is; a swapped word
    ends unpointed, so swapping it again undoes the swap."""
    idx = letters.index(_POINTED_0)
    if letters[-1].pointed and (idx == len(letters) - 1 or letters[idx + 1].pointed):
        return letters
    a = idx + 1
    # the blocks after the pointed 0 end where the kind changes, and at the end
    ends = [j for j in range(a + 1, len(letters)) if letters[j].pointed != letters[j - 1].pointed]
    ends.append(len(letters))
    if len(ends) % 2:
        raise ValueError("the letters after the pointed 0 do not form block pairs")
    out = list(letters[:a])
    for b, c in zip(ends[::2], ends[1::2]):
        out += letters[b:c]
        out += letters[a:b]
        a = c
    return tuple(out)


# ---------------------------------------------------------------------------
# triplet <-> marked run


def _triplet_to_run(l_cycles: tuple, r_cycles: tuple, order: tuple) -> MarkedRun:
    # triplet_to_run on cycle tuples and the block order of a word, its
    # letters after the swap; nothing is checked, only the result validated
    v = sum(map(len, l_cycles)) + 1
    out: list[int] = []
    k = -1
    for value, pointed in order:
        if not pointed:
            out += [x + v for x in r_cycles[value - 1]]
        elif value:
            out += l_cycles[value - 1]
        else:
            k = len(out) + 1
            out.append(v)
    return MarkedRun(tuple(out), k)


def triplet_to_run(
    l_cycles: CycleForm, r_cycles: CycleForm, m: ColoredWord
) -> MarkedRun:
    """Substitute cycles for letters: pointed i becomes the i-th left
    cycle, unpointed j the j-th right cycle shifted up, and the pointed 0
    the split value itself, after the block swap. The word is checked
    against the cycle counts, then for order; only the `MarkedRun` is built."""
    if m.h != len(l_cycles.cycles) or m.w != len(r_cycles.cycles):
        raise ValueError("word alphabet does not match the cycle counts")
    if not _valid_word(m.letters):
        raise ValueError("not a valid colored word")
    return _triplet_to_run(l_cycles.cycles, r_cycles.cycles, m_star(m.letters))


def _run_to_triplet(mr: MarkedRun) -> tuple[tuple, tuple, tuple]:
    # run_to_triplet as (left cycles, right cycles, block order), nothing
    # built: the order is the word's letters as the blocks hold them, unswapped
    p, k = mr.perm, mr.k
    v = p[k - 1]
    small, big = [], []  # the cycles of smaller and of larger values
    order = []  # per letter, the maximum of its cycle; v for the pointed 0
    head = 0  # the maximum of the cycle being built; 0 at a block's start
    for j, e in enumerate(p):
        # a new cycle starts at each left-to-right maximum of a block
        if e == v or not head or (e < v) != (head < v) or e > head:
            if head:
                (small if head < v else big).append(p[a:j])
            a, head = j, (0 if e == v else e)
            order.append(e)
    if head:
        (small if head < v else big).append(p[a:])

    # cycles start with distinct maxima, so sorting them sorts by maxima
    small.sort()
    big.sort()
    letter = {c[0]: _letter(i, True) for i, c in enumerate(small, 1)}
    for i, c in enumerate(big, 1):
        letter[c[0]] = _letter(i, False)
    letter[v] = _POINTED_0
    shifted = tuple([tuple([x - v for x in c]) for c in big])
    return tuple(small), shifted, tuple([letter[e] for e in order])


def _word_of(order: tuple) -> tuple[ColoredLetter, ...]:
    # the value after the mark is smaller, so the pointed 0 is last or
    # followed by a pointed letter: m_star swaps exactly the orders that end
    # unpointed, undoing the swap in triplet_to_run
    letters = m_star(order)
    if not _valid_word(letters):
        raise ValueError("the block order does not give a valid colored word")
    return letters


def run_to_triplet(mr: MarkedRun) -> tuple[CycleForm, CycleForm, ColoredWord]:
    """Cut the permutation around the marked value into maximal blocks of
    smaller and larger values, break each block at its left-to-right
    maxima, and record the block order as a colored word. The three parts
    are built by their validating constructors."""
    l_cycles, r_cycles, order = _run_to_triplet(mr)
    word = ColoredWord(_word_of(order), len(l_cycles), len(r_cycles))
    return CycleForm(l_cycles), CycleForm(r_cycles), word


# ---------------------------------------------------------------------------
# ranking the side pieces and the corner-to-run map


@lru_cache(maxsize=64)
def _piece_paths(k: int) -> tuple[tuple[BorderPath, ...], dict, dict]:
    """(paths, index, offsets) for the size-k tableaux: the border paths in
    `enumerate_tlt` order, each path's position by its steps, and for each
    (stat, d), stat `first_row_points` or `first_col_points`, the prefix
    sums over the paths of the tableaux with stat d, so entry i counts
    those on earlier paths. Read off the per-path first-row counts of
    `tlt_first_row_counts`, 2^(k-1) of them: transposing a tableau swaps
    its first row and first column ([ABN]), so each path's first-row
    counts are also the first-column counts of its transposed path."""
    paths = tuple(BorderPath(steps) for steps in _tlt_paths(k))
    index = {path.steps: i for i, path in enumerate(paths)}
    counts = defaultdict(lambda: [0] * len(paths))
    for i, path in enumerate(paths):
        j = index[transpose_steps(path.steps)]
        for d, count in tlt_first_row_counts(path.row_lengths, path.num_cols).items():
            counts[first_row_points, d][i] += count
            counts[first_col_points, d][j] += count
    return paths, index, {key: list(accumulate(c, initial=0)) for key, c in counts.items()}


def _piece_rank(steps: str, rows: tuple[int, ...], dots: tuple) -> int:
    """The position of the side piece with these border steps and rows
    among the tableaux of its size whose first-row or first-column dots
    match `dots` = (stat, d), in `enumerate_tlt` order: the ones on earlier
    paths, then its filling's rank among the fillings of its path with
    stat d. A size-0 piece is alone at 0, and must be the one `_piece_unrank`
    gives for the stat. `filling_rank` raises ValueError on a filling the
    tableau constructor rejects or whose stat is not d."""
    if len(steps) == 1:
        if (steps, rows) != _piece_unrank(dots[0], 0, 0, 0):
            raise ValueError("not the size-0 piece of its side")
        return 0
    paths, index, offsets = _piece_paths(len(steps) - 1)
    i = index[steps]
    rank = filling_rank(paths[i].row_lengths, paths[i].num_cols, rows, dots)
    return offsets[dots][i] + rank


def _piece_unrank(stat, k: int, d: int, index: int) -> tuple[str, tuple[int, ...]]:
    """The (steps, rows) of the size-k tableau with stat d at position
    `index`, the inverse of `_piece_rank`; size 0 gives the degenerate piece
    cutting leaves on that side. ValueError when there is none."""
    if not k:
        if d or index:
            raise ValueError(f"no size-0 piece with {d} dots at index {index}")
        return (SOUTH, (0,)) if stat is first_row_points else (WEST, ())
    paths, _, offsets = _piece_paths(k)
    sums = offsets.get((stat, d))
    if sums is None or not 0 <= index < sums[-1]:
        raise ValueError(f"no tableau of size {k} with {d} dots at index {index}")
    i = bisect_right(sums, index) - 1
    path = paths[i]
    return path.steps, filling_unrank(path.row_lengths, path.num_cols, index - sums[i], (stat, d))


# Permutations of 1..n with d cycles, in `itertools.permutations` order.
# Once p[0..i-1] is fixed, the map i' -> p[i'-1] is some closed cycles and
# n - i open chains; the completions that close j more cycles number
# c(n - i, j), the unsigned Stirling number of the first kind, since each
# chain then acts as one point. The next value closes a cycle exactly when
# it is the start of the chain that ends at i + 1.


@lru_cache(maxsize=64)
def _stirling_rows(n: int) -> list[list[int]]:
    """rows[q][j] = c(q, j) for q = 0..n and j = 0..n + 1, with c(0, 0) = 1.
    Entry n + 1 is always 0, so j = -1 reads 0 too."""
    rows = [[1] + [0] * (n + 1)]
    for q in range(1, n + 1):
        row = stirling_row(q)
        rows.append([row.get(j, 0) for j in range(n + 2)])
    return rows


def _perm_rank(cycles: tuple[tuple[int, ...], ...]) -> int:
    """The position of the permutation with these cycles among those of its
    size with as many cycles: at each position, the smaller unused values
    times their completions."""
    p = _permutation(cycles)
    n, d = len(p), len(cycles)
    rows = _stirling_rows(n)
    head = list(range(n + 1))  # head[e]: the start of the open chain ending at e
    tail = list(range(n + 1))  # tail[s]: the end of the open chain starting at s
    free = (1 << (n + 1)) - 2  # the unused values
    rank = 0
    for i, v in enumerate(p, 1):
        s = head[i]
        row = rows[n - i]
        below = (free & ((1 << v) - 1)).bit_count()
        if s < v:
            rank += (below - 1) * row[d] + row[d - 1]
        else:
            rank += below * row[d]
        free ^= 1 << v
        if v == s:
            d -= 1
        else:
            e = tail[v]
            head[e], tail[s] = s, e
    return rank


def _perm_unrank(n: int, d: int, index: int) -> tuple[int, ...]:
    """The permutation of 1..n with d cycles at position `index`, the
    inverse of `_perm_rank`. ValueError when there is none."""
    rows = _stirling_rows(n)
    if not (0 <= d <= n and 0 <= index < rows[n][d]):
        raise ValueError(f"no permutation of {n} with {d} cycles at index {index}")
    head = list(range(n + 1))
    tail = list(range(n + 1))
    free = list(range(1, n + 1))
    p = []
    for i in range(1, n + 1):
        s = head[i]
        row = rows[n - i]
        # every unused value but s leaves a completions, s leaves b; the
        # j values below s come first
        a = row[d]
        j = bisect_left(free, s)
        if index < j * a:
            k, index = divmod(index, a)
        else:
            index -= j * a
            b = row[d - 1]
            if index < b:
                k = j
            else:
                k, index = divmod(index - b, a)
                k += j + 1
        v = free.pop(k)
        p.append(v)
        if v == s:
            d -= 1
        else:
            e = tail[v]
            head[e], tail[s] = s, e
    return tuple(p)


class _TwoWayMemo:
    """A bounded memo of f and its inverse g, bijections in the last
    argument for each value c of the leading ones: f(*c, x) = y exactly
    when g(*c, y) = x. A pair computed either way is stored both ways, so
    the inverse call that follows is a hit. At most `maxsize` pairs are
    held, in one recency order for both ways: a hit either way makes its
    pair the most recent, and the least recent leaves both ways at once. No
    exception is stored. f must reject every key in no pair; g sees only
    keys in one. `cache_info` and the rest read as `lru_cache`'s, both ways."""

    Info = namedtuple("CacheInfo", "hits misses maxsize currsize")

    def __init__(self, f, g, maxsize: int = 512):
        self._f, self._g, self._maxsize = f, g, maxsize
        self.cache_clear()

    def cache_clear(self) -> None:
        # {(*c, x): y}, least recent first, and each pair's (*c, y) -> (*c, x)
        self._pairs: OrderedDict = OrderedDict()
        self._back: dict = {}
        self._hits = self._misses = 0

    def cache_info(self) -> tuple:
        return self.Info(self._hits, self._misses, self._maxsize, len(self._pairs))

    def cache_parameters(self) -> dict:
        return {"maxsize": self._maxsize, "typed": False}

    def forward(self, *key):
        image = self._pairs.get(key)
        if image is None:
            self._misses += 1
            return self._store(key, self._f(*key))
        self._hits += 1
        self._pairs.move_to_end(key)
        return image

    def inverse(self, *key):
        pair = self._back.get(key)
        if pair is None:
            self._misses += 1
            pair = (*key[:-1], self._g(*key))
            self._store(pair, key[-1])
        else:
            self._hits += 1
            self._pairs.move_to_end(pair)
        return pair[-1]

    def _store(self, pair: tuple, image):
        # hold the pair ((*c, x), y) as the most recent one; returns y
        self._pairs[pair] = image
        self._back[(*pair[:-1], image)] = pair
        if len(self._pairs) > self._maxsize:
            old, old_image = self._pairs.popitem(last=False)
            del self._back[(*old[:-1], old_image)]
        return image


def _rank_piece(stat, d: int, piece: tuple) -> tuple:
    # the cycles of the permutation with d cycles at the piece's rank
    steps, rows = piece
    return _cycles(_perm_unrank(len(steps) - 1, d, _piece_rank(steps, rows, (stat, d))))


def _unrank_piece(stat, d: int, cycles: tuple) -> tuple[str, tuple[int, ...]]:
    return _piece_unrank(stat, sum(map(len, cycles)), d, _perm_rank(cycles))


def _rank_tree(h: int, w: int, tree: tuple[int, ...]) -> tuple[ColoredLetter, ...]:
    # the block order of the word paired with the tree's transpose, ranked in place
    if len(tree) != w + 1 or any(row >> h + 1 for row in tree):
        raise ValueError(f"the tree does not fill the {w + 1} x {h + 1} grid")
    rank = filling_rank((w + 1,) * (h + 1), w + 1, transpose_bits(tree, h + 1))
    return m_star(_word_unrank(h, w, rank))


def _unrank_tree(h: int, w: int, order: tuple) -> tuple[int, ...]:
    rank = _word_rank(h, w, _word_of(order))
    return transpose_bits(filling_unrank((w + 1,) * (h + 1), w + 1, rank), w + 1)


# for each stat and d, the side pieces with stat d and the permutations with
# d cycles; for each (h, w), the trees of the grid and the words' block orders
_PIECES = _TwoWayMemo(_rank_piece, _unrank_piece)
_TREES = _TwoWayMemo(_rank_tree, _unrank_tree)
_piece_to_cycles, _cycles_to_piece = _PIECES.forward, _PIECES.inverse
_tree_to_letters, _letters_to_tree = _TREES.forward, _TREES.inverse


def corner_to_run(t: TreeLikeTableau, corner: Cell) -> MarkedRun:
    """Cut at the corner, recode each piece by its rank, and substitute
    into a marked-run permutation.

    A side piece of size k with d first-row (left) or first-column (right)
    dots becomes the permutation of k with d cycles of the same rank
    (`_piece_rank`, `_perm_unrank`). The two d are the tree's width h and
    height w, which `_cut` returns with its rows. The tree becomes the
    colored word whose rank among the valid words of its alphabet, ordered
    lexicographically by letter key (value first, unpointed before
    pointed) as `_word_unrank` walks them, equals the rank of the tree's
    transpose among `enumerate_nat` of its grid (`filling_rank`,
    `_word_unrank`). Every rank is counted from completion counts, so no
    tableau, permutation or grid is listed.

    The pieces, tree, cycles and word stay rows and tuples: `filling_rank` checks
    each piece and the tree as their constructors would, and the
    `MarkedRun` is the one object built. The recodings go through the
    two-way memos `_PIECES` and `_TREES`, so `run_to_corner` on the result
    recodes nothing, and a rejected piece raises on every call. `_TREES`
    pairs the tree with the word's block order, its letters after `m_star`,
    so the swap runs only when a tree is recoded and a memo hit runs none."""
    left, right, (h, w, tree) = _cut(t, corner)
    l_cycles = _piece_to_cycles(first_row_points, h, left)
    r_cycles = _piece_to_cycles(first_col_points, w, right)
    return _triplet_to_run(l_cycles, r_cycles, _tree_to_letters(h, w, tree))


def run_to_corner(mr: MarkedRun) -> tuple[TreeLikeTableau, Cell]:
    """Inverse of the corner-to-run map: split the run into cycles and a
    block order, unrank each side piece at its cycles' rank (`_perm_rank`,
    `_piece_unrank`), and unrank the tree that pairs with the order's
    colored word (`m_star`, `_word_rank`, `filling_unrank`) straight into
    the rows of its transpose, through the memos of `corner_to_run`, so a
    memo hit swaps and checks no word. Unranking emits only valid pieces,
    so the glued `TreeLikeTableau` is the one object built and validated."""
    l_cycles, r_cycles, order = _run_to_triplet(mr)
    h, w = len(l_cycles), len(r_cycles)
    left = _cycles_to_piece(first_row_points, h, l_cycles)
    right = _cycles_to_piece(first_col_points, w, r_cycles)
    return _glue(left, right, (h, w, _letters_to_tree(h, w, order)))
