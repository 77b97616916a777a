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
    SOUTH,
    WEST,
    BorderPath,
    Cell,
    TreeLikeTableau,
    _pt_paths,
    _tlt_completions,
    _tlt_paths,
    first_row_points,
    pt_filling_count,
    tlt_filling_tallies,
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
    = (stat, d), how many of them have stat d: the count at the start of
    the completion table that rank and unrank walk."""
    return _tlt_completions(lengths, width, dots)[1][0][0][0]


def corner_positions(n: int, family: str) -> dict[int, int]:
    """{i: the corners in the row labelled i, over all tree-like tableaux
    of size n (`family` "tlt") or permutation tableaux of length n ("pt")}:
    each border path's filling count (`tlt_filling_tallies` or
    `pt_filling_count`) times its corner labels."""
    out: dict[int, int] = {}
    for steps in (_tlt_paths if family == "tlt" else _pt_paths)(n):
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
