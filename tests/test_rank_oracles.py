"""Rank and unrank by counting against the tables they replaced.

The corner-to-run map recodes each side piece and the tree by rank. A side
piece of size k with d first-row (left) or first-column (right) dots pairs
with the permutation of k with d cycles at the same rank
(`_piece_rank`/`_piece_unrank`: per-path offsets plus lane d of the
completion table's counts; `_perm_rank`/`_perm_unrank`: Stirling
completions).
The i-th non-ambiguous tree of an (h, w) grid pairs with the i-th colored
word on the (h, w) alphabet (`filling_rank`/`filling_unrank` over the
tree-like filling rules, `_word_rank`/`_word_unrank` over the colored-word
rules). The references below are the earlier tables, which list every
tableau, permutation, tree and word of a size and bucket them; they are
kept here unchanged as the oracles, together with the corner-to-run
composition that read them.
"""

from functools import lru_cache
from itertools import accumulate, chain, permutations, product
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    EMPTY_COL_TABLEAU,
    EMPTY_ROW_TABLEAU,
    cycle_count,
    enumerate_colored_words,
    filling_count,
    pt_filling_count,
    tlt_dot_counts,
)
from treelike.bijections import (
    _PIECES,
    _TREES,
    ColoredLetter,
    ColoredWord,
    CycleForm,
    MarkedRun,
    _cycles,
    _letters_to_tree,
    _perm_rank,
    _perm_unrank,
    _piece_paths,
    _piece_rank,
    _piece_to_cycles,
    _permutation,
    _piece_unrank,
    _tree_to_letters,
    _valid_word,
    _word_rank,
    _word_unrank,
    corner_to_run,
    count_colored_words,
    cut_at_corner,
    glue,
    m_star,
    parse_colored_word,
    pt_to_tlt,
    run_to_corner,
    run_to_triplet,
    tlt_to_pt,
    triplet_to_run,
)
from treelike.core import (
    SOUTH,
    WEST,
    BorderPath,
    NonAmbiguousTree,
    TreeLikeTableau,
    _tlt_completions,
    _tlt_paths,
    enumerate_nat,
    enumerate_tlt,
    filling_rank,
    filling_unrank,
    first_col_points,
    first_row_points,
    pt_fillings,
    stats_of,
    tlt_fillings,
    transpose,
    transpose_bits,
)
from treelike.counting import stirling_row

# ---------------------------------------------------------------------------
# oracles


def _bucket(items, key) -> tuple[dict, dict]:
    """Group items by key, keeping their order; an item's rank is its
    position inside its group."""
    buckets: dict = {}
    for x in items:
        buckets.setdefault(key(x), []).append(x)
    ranks = {x: i for lst in buckets.values() for i, x in enumerate(lst)}
    return buckets, ranks


@lru_cache(maxsize=None)
def _tlts(n: int) -> tuple[TreeLikeTableau, ...]:
    """Every tableau of size n, enumerated once for both rank tables."""
    return tuple(enumerate_tlt(n))


@lru_cache(maxsize=None)
def _tlts_by(stat, n: int):
    """Tableaux of size n bucketed by a first-row or first-column count.
    Size 0 holds the one degenerate piece that cutting leaves on that side."""
    if n:
        items = _tlts(n)
    else:
        items = [EMPTY_ROW_TABLEAU if stat is first_row_points else EMPTY_COL_TABLEAU]
    return _bucket(items, lambda t: stat(t.rows))


@lru_cache(maxsize=None)
def _perms_by_cycles(n: int):
    return _bucket(permutations(range(1, n + 1)), cycle_count)


@lru_cache(maxsize=None)
def table_grid(h, w):
    """Trees of the (h, w) grid and words on the (h, w) alphabet, bucketed
    by type; the i-th tree pairs with the i-th word."""
    return _bucket(chain(enumerate_nat(h, w), enumerate_colored_words(h, w)), type)


def table_corner_to_run(t, corner):
    t_l, t_r, nat = cut_at_corner(t, corner)
    fr_l = first_row_points(t_l.rows)
    fc_r = first_col_points(t_r.rows)

    _, ranks_l = _tlts_by(first_row_points, t_l.size)
    perms_l, _ = _perms_by_cycles(t_l.size)
    l_cycles = CycleForm(_cycles(perms_l[fr_l][ranks_l[t_l]]))

    _, ranks_r = _tlts_by(first_col_points, t_r.size)
    perms_r, _ = _perms_by_cycles(t_r.size)
    r_cycles = CycleForm(_cycles(perms_r[fc_r][ranks_r[t_r]]))

    grid, ranks = table_grid(fr_l, fc_r)
    m = grid[ColoredWord][ranks[NonAmbiguousTree(transpose(nat.tableau))]]
    return triplet_to_run(l_cycles, r_cycles, m)


def table_run_to_corner(mr):
    l_cycles, r_cycles, m = run_to_triplet(mr)

    p_l = _permutation(l_cycles.cycles)
    buckets_l, _ = _tlts_by(first_row_points, len(p_l))
    _, perm_ranks_l = _perms_by_cycles(len(p_l))
    t_l = buckets_l[m.h][perm_ranks_l[p_l]]

    p_r = _permutation(r_cycles.cycles)
    buckets_r, _ = _tlts_by(first_col_points, len(p_r))
    _, perm_ranks_r = _perms_by_cycles(len(p_r))
    t_r = buckets_r[m.w][perm_ranks_r[p_r]]

    grid, ranks = table_grid(m.h, m.w)
    nat = NonAmbiguousTree(transpose(grid[NonAmbiguousTree][ranks[m]].tableau))
    return glue(t_l, t_r, nat)


# ---------------------------------------------------------------------------
# helpers


def rect(h, w):
    """The (lengths, width) of the (h, w) grid."""
    return (w + 1,) * (h + 1), w + 1


def grid_tree(h, w, rows):
    return NonAmbiguousTree(TreeLikeTableau(BorderPath(SOUTH * (h + 1) + WEST * (w + 1)), rows))


SMALL_GRIDS = [(h, w) for h in range(7) for w in range(7) if h + w <= 6]

STATS = [first_row_points, first_col_points]
STAT_IDS = ["first-row", "first-col"]


def unranked_piece(stat, k, d, i):
    steps, rows = _piece_unrank(stat, k, d, i)
    return TreeLikeTableau(BorderPath(steps), rows)  # the validating constructor


def stirling(n, d):
    """c(n, d), with c(0, 0) = 1."""
    return stirling_row(n).get(d, 0) if n else int(d == 0)


# ---------------------------------------------------------------------------
# exhaustive agreement with the tables


@pytest.mark.parametrize("h,w", SMALL_GRIDS)
def test_tree_ranks_follow_enumeration(h, w):
    lengths, width = rect(h, w)
    trees, ranks = table_grid(h, w)
    trees = trees[NonAmbiguousTree]
    assert filling_count(lengths, width) == len(trees)
    for i, nat in enumerate(trees):
        assert ranks[nat] == i
        assert filling_rank(lengths, width, nat.tableau.rows) == i
        assert filling_unrank(lengths, width, i) == nat.tableau.rows


@pytest.mark.parametrize("h,w", SMALL_GRIDS)
def test_word_ranks_follow_enumeration(h, w):
    words = list(enumerate_colored_words(h, w))
    assert count_colored_words(h, w) == len(words)
    for i, m in enumerate(words):
        assert _word_rank(h, w, m.letters) == i
        assert _word_unrank(h, w, i) == m.letters


def test_filling_rank_on_every_tree_like_shape():
    # not only rectangles: every path up to size 6
    for n in range(1, 7):
        for steps in _tlt_paths(n):
            path = BorderPath(steps)
            lengths, width = path.row_lengths, path.num_cols
            fillings = list(tlt_fillings(lengths, width))
            assert filling_count(lengths, width) == len(fillings)
            for i, rows in enumerate(fillings):
                assert filling_rank(lengths, width, rows) == i
                assert filling_unrank(lengths, width, i) == rows


@pytest.mark.parametrize("stat", STATS, ids=STAT_IDS)
@pytest.mark.parametrize("k", range(8))
def test_piece_ranks_follow_tables(k, stat):
    buckets, ranks = _tlts_by(stat, k)
    for d, pieces in buckets.items():
        for i, t in enumerate(pieces):
            assert ranks[t] == i
            assert _piece_rank(t.path.steps, t.rows, (stat, d)) == i
            assert _piece_unrank(stat, k, d, i) == (t.path.steps, t.rows)
    if k:
        # the offsets count exactly the tableaux of each bucket
        _, _, offsets = _piece_paths(k)
        totals = {d: sums[-1] for (s, d), sums in offsets.items() if s is stat}
        assert totals == {d: len(pieces) for d, pieces in buckets.items()}


@pytest.mark.parametrize("n", range(9))
def test_perm_ranks_follow_tables(n):
    buckets, ranks = _perms_by_cycles(n)
    for d, perms in buckets.items():
        assert len(perms) == stirling(n, d)
        for i, p in enumerate(perms):
            assert ranks[p] == i
            c = CycleForm(_cycles(p))
            assert len(c.cycles) == d
            assert _perm_rank(c.cycles) == i
            assert _perm_unrank(n, d, i) == p


@pytest.mark.parametrize("k", range(1, 11))
def test_piece_counts_are_stirling_rows(k):
    # the recoding needs as many pieces with d dots as permutations with d
    # cycles: the per-path offsets must add up to the Stirling row
    _, _, offsets = _piece_paths(k)
    for stat in STATS:
        totals = {d: sums[-1] for (s, d), sums in offsets.items() if s is stat}
        assert totals == stirling_row(k)
    assert sum(stirling_row(k).values()) == factorial(k)


@pytest.mark.parametrize("n", range(1, 7))
def test_corner_to_run_matches_table_composition(n):
    for t in enumerate_tlt(n):
        for corner in t.path.corner_cells:
            mr = corner_to_run(t, corner)
            assert mr == table_corner_to_run(t, corner)
            assert run_to_corner(mr) == table_run_to_corner(mr) == (t, corner)


ROUND_TRIP_MEMOS = (_PIECES, _TREES)


def test_cached_round_trip_matches_tables_cold_and_warm():
    # the round trip memoizes the recoding of each side piece and tree both
    # ways: from empty memos and again from full ones, both maps agree with
    # the tables at every corner up to size 6
    def sweep():
        for n in range(1, 7):
            for t in _tlts(n):
                for corner in t.path.corner_cells:
                    mr = corner_to_run(t, corner)
                    assert mr == table_corner_to_run(t, corner)
                    assert run_to_corner(mr) == table_run_to_corner(mr) == (t, corner)
        return [f.cache_info() for f in ROUND_TRIP_MEMOS]

    for f in ROUND_TRIP_MEMOS:
        f.cache_clear()
    cold = sweep()
    warm = sweep()
    # the bound holds every piece and tree up to size 6, so the warm pass
    # read every recoding from the caches
    assert all(c.currsize < c.maxsize for c in cold)
    assert [w.misses for w in warm] == [c.misses for c in cold]
    assert all(w.hits > c.hits for w, c in zip(warm, cold))


def _raised(f, *args) -> str:
    with pytest.raises(ValueError) as err:
        f(*args)
    return str(err.value)


@pytest.mark.parametrize("stat", STATS, ids=STAT_IDS)
def test_rejected_piece_raises_on_every_call(stat):
    # lru_cache stores no exception: a filling that filling_rank rejects
    # raises the same error on every call, also right after a valid piece
    # of the same shape filled the cache
    path = BorderPath("SSWSWW")
    lengths, width = path.row_lengths, path.num_cols
    valid = set(tlt_fillings(lengths, width))
    for rows in product(*(range(1 << lam) for lam in lengths)):
        for d in range(1, 5):
            if rows in valid and stat(rows) == d:
                cycles = _piece_to_cycles(stat, d, (path.steps, rows))
                assert _piece_to_cycles(stat, d, (path.steps, rows)) == cycles
                continue
            message = _raised(filling_rank, lengths, width, rows, (stat, d))
            for _ in range(2):
                assert _raised(_piece_to_cycles, stat, d, (path.steps, rows)) == message


def test_rejected_tree_raises_on_every_call():
    # the tree has w + 1 rows of h + 1 cells; its transpose fills the (h, w) grid
    h, w = 2, 1
    lengths, _ = rect(w, h)
    trees = {nat.tableau.rows for nat in enumerate_nat(w, h)}
    for rows in product(*(range(1 << lam) for lam in lengths)):
        if rows in trees:
            letters = _tree_to_letters(h, w, rows)
            assert _letters_to_tree(h, w, letters) == rows
            continue
        message = _raised(filling_rank, *rect(h, w), transpose_bits(rows, h + 1))
        for _ in range(2):
            assert _raised(_tree_to_letters, h, w, rows) == message


# ---------------------------------------------------------------------------
# rejected input


def test_rejected_fillings_raise():
    # every 0/1 filling of every shape up to size 6: accepted exactly when
    # the enumeration yields it
    for n in range(1, 7):
        for steps in _tlt_paths(n):
            path = BorderPath(steps)
            lengths, width = path.row_lengths, path.num_cols
            valid = set(tlt_fillings(lengths, width))
            for rows in product(*(range(1 << lam) for lam in lengths)):
                if rows in valid:
                    filling_rank(lengths, width, rows)
                else:
                    with pytest.raises(ValueError):
                        filling_rank(lengths, width, rows)
    # restricted to `dots` = (stat, d), every shape up to size 5, both stats
    # and every d: a rank exactly when the constructor accepts the filling
    # and its stat is d, namely its position among those fillings; the
    # corner-to-run map relies on this to check the pieces it cuts
    for n in range(1, 6):
        for steps in _tlt_paths(n):
            path = BorderPath(steps)
            lengths, width = path.row_lengths, path.num_cols
            order = list(tlt_fillings(lengths, width))
            for rows in product(*(range(1 << lam) for lam in lengths)):
                try:
                    TreeLikeTableau(path, rows)
                    accepted = True
                except ValueError:
                    accepted = False
                for stat in STATS:
                    for d in range(n + 2):
                        if accepted and stat(rows) == d:
                            rank = [r for r in order if stat(r) == d].index(rows)
                            assert filling_rank(lengths, width, rows, (stat, d)) == rank
                        else:
                            with pytest.raises(ValueError):
                                filling_rank(lengths, width, rows, (stat, d))


@pytest.mark.parametrize(
    "rows,match",
    [
        ((0b10, 0b01), "row 1, column index 0 must hold a dot"),  # no root dot
        ((0b11, 0b11), "may not hold a dot"),  # a dot with two parents
        ((0b01, 0b01), "must hold a dot"),  # the right column stays empty
        ((0b111, 0b01), "outside its row"),
        ((0b11,), "row count"),
        ((0b10, 0b101), "outside its row"),  # found before any cell, as in the constructor
    ],
)
def test_rejected_filling_messages(rows, match):
    lengths, width = rect(1, 1)
    with pytest.raises(ValueError, match=match):
        filling_rank(lengths, width, rows)


def test_shape_narrower_than_width():
    # a column no row reaches never holds a dot, so nothing is yielded
    assert list(tlt_fillings((2, 2), 3)) == list(pt_fillings((2, 1), 3)) == []
    assert filling_count((2, 2), 3) == pt_filling_count((2, 1), 3) == 0
    assert tlt_dot_counts((2, 2), 3) == {}
    with pytest.raises(ValueError, match="some column has no dot"):
        filling_rank((2, 2), 3, (0b11, 0b01))


def test_unrank_out_of_range():
    lengths, width = rect(1, 1)
    total = filling_count(lengths, width)
    for index in (-1, total):
        with pytest.raises(ValueError, match="no filling"):
            filling_unrank(lengths, width, index)
        with pytest.raises(ValueError, match="no colored word"):
            _word_unrank(1, 1, index)


@pytest.mark.parametrize("n,d", [(0, 0), (1, 1), (3, 1), (3, 2), (5, 3), (8, 8)])
def test_perm_unrank_out_of_range(n, d):
    for index in (-1, stirling(n, d)):
        with pytest.raises(ValueError, match="no permutation"):
            _perm_unrank(n, d, index)
    # cycle counts no permutation of n has
    for bad in (-1, n + 1) if n else (-1, 1):
        with pytest.raises(ValueError, match="no permutation"):
            _perm_unrank(n, bad, 0)


@pytest.mark.parametrize("stat", STATS, ids=STAT_IDS)
def test_piece_unrank_out_of_range(stat):
    for d, index in ((0, 1), (0, -1), (1, 0)):
        with pytest.raises(ValueError, match="no size-0 piece"):
            _piece_unrank(stat, 0, d, index)
    for k in (1, 4, 7):
        for d in range(1, k + 1):
            for index in (-1, stirling(k, d)):
                with pytest.raises(ValueError, match=f"no tableau of size {k}"):
                    _piece_unrank(stat, k, d, index)
        for d in (0, k + 1):  # a piece of size k has 1..k such dots
            with pytest.raises(ValueError, match=f"no tableau of size {k}"):
                _piece_unrank(stat, k, d, 0)


def test_rank_with_wrong_dot_count_raises():
    # a branch that cannot end at d counted dots is forbidden, so the error
    # names the first cell where the count goes wrong
    t = TreeLikeTableau(BorderPath("SWSW"), (0b11, 0b01))  # two first-row dots
    lengths, width = t.path.row_lengths, t.path.num_cols
    assert filling_rank(lengths, width, t.rows, (first_row_points, 2)) == 0
    with pytest.raises(ValueError, match="row 1, column index 1 may not hold a dot"):
        filling_rank(lengths, width, t.rows, (first_row_points, 1))
    with pytest.raises(ValueError, match="row 1, column index 0 may not hold a dot"):
        filling_rank(lengths, width, t.rows, (first_row_points, 3))
    t = TreeLikeTableau(BorderPath("SSWW"), (0b01, 0b11))  # one first-row dot
    lengths, width = t.path.row_lengths, t.path.num_cols
    with pytest.raises(ValueError, match="row 1, column index 1 must hold a dot"):
        filling_rank(lengths, width, t.rows, (first_row_points, 2))


def test_one_completion_table_per_shape_and_statistic():
    # the dot count is a lane of the table's counts, not part of its key:
    # every d of both statistics reads the shape's one table per statistic
    path = BorderPath("SWSSWWSW")
    lengths, width = path.row_lengths, path.num_cols
    fillings = list(tlt_fillings(lengths, width))
    _tlt_completions.cache_clear()
    for stat in STATS:
        buckets, _ = _bucket(fillings, stat)
        assert len(buckets) > 1
        for d, rows_d in buckets.items():
            assert filling_count(lengths, width, (stat, d)) == len(rows_d)
            for i, rows in enumerate(rows_d):
                assert filling_rank(lengths, width, rows, (stat, d)) == i
                assert filling_unrank(lengths, width, i, (stat, d)) == rows
    assert _tlt_completions.cache_info().currsize == len(STATS)


@pytest.mark.parametrize("stat", STATS, ids=STAT_IDS)
def test_dot_count_outside_the_lanes_raises(stat):
    # d = -1 and d above the counted cells name the root, whose dot already
    # leaves too many or too few, and no index unranks
    path = BorderPath("SWSSWWSW")
    lengths, width = path.row_lengths, path.num_cols
    counted = lengths[0] if stat is first_row_points else len(lengths) - lengths.count(0)
    rows = next(tlt_fillings(lengths, width))
    for d in (-1, counted + 1):
        with pytest.raises(ValueError, match="row 1, column index 0 may not hold a dot"):
            filling_rank(lengths, width, rows, (stat, d))
        with pytest.raises(ValueError, match="no filling at index 0"):
            filling_unrank(lengths, width, 0, (stat, d))
        assert filling_count(lengths, width, (stat, d)) == 0
    for d in (-1, 8):  # a piece of size 7 has 1..7 such dots
        with pytest.raises(ValueError, match="no tableau of size 7 with"):
            _piece_unrank(stat, 7, d, 0)
    # a shape without cells has only lane 0
    with pytest.raises(ValueError, match="some column has no dot"):
        filling_rank((0,), 0, (0,), (stat, -1))
    with pytest.raises(ValueError, match="no filling at index 0"):
        filling_unrank((0,), 0, 0, (stat, -1))


def test_dot_count_without_a_statistic_raises():
    # d counts the dots of a statistic; with none, a nonzero d is rejected
    # up front with the package's own text, on either sign
    lengths, width, rows = (2, 1), 2, (0b11, 0b01)
    assert filling_rank(lengths, width, rows, (None, 0)) == filling_rank(lengths, width, rows)
    assert filling_unrank(lengths, width, 0, (None, 0)) == filling_unrank(lengths, width, 0)
    for d in (-1, 1):
        with pytest.raises(ValueError, match=f"{d} dots asked for with no statistic"):
            filling_rank(lengths, width, rows, (None, d))
        with pytest.raises(ValueError, match=f"{d} dots asked for with no statistic"):
            filling_unrank(lengths, width, 0, (None, d))


@pytest.mark.parametrize("k", range(1, 8))
def test_piece_offsets_equal_the_joint_counts(k):
    # `_piece_paths` tallies first-row dots per path and reads first-column
    # dots off the transposed path; the joint (fr, fc) DP gives both at once
    paths, index, offsets = _piece_paths(k)
    assert [p.steps for p in paths] == list(_tlt_paths(k))
    joint: dict = {}
    for i, p in enumerate(paths):
        assert index[p.steps] == i
        for (fr, fc), count in tlt_dot_counts(p.row_lengths, p.num_cols).items():
            for key in ((first_row_points, fr), (first_col_points, fc)):
                joint.setdefault(key, [0] * len(paths))[i] += count
    assert offsets == {key: list(accumulate(c, initial=0)) for key, c in joint.items()}


@pytest.mark.parametrize("text", ["1* 4 0* 2* 1 2 3* 3", "2* 1* 0*", "0* 1"])
def test_invalid_word_rank_raises(text):
    m = parse_colored_word(text)
    assert not _valid_word(m.letters)
    with pytest.raises(ValueError, match="not a valid colored word"):
        _word_rank(m.h, m.w, m.letters)


def _letters(text: str) -> tuple:
    # the letters of a text, with no alphabet check
    return tuple(ColoredLetter(int(tok.rstrip("*")), tok.endswith("*")) for tok in text.split())


@pytest.mark.parametrize(
    "h,w,text",
    [
        (2, 1, "0* 1 0* 2*"),  # pointed 0 twice, pointed 1 missing
        (1, 1, "1* 1 1*"),  # pointed 1 twice, pointed 0 missing
        (1, 1, "0* 1 2*"),  # a pointed letter outside the alphabet
        (1, 1, "0* 2 1*"),  # an unpointed letter outside the alphabet
        (1, 2, "1 0* 1*"),  # unpointed 2 left unused
        (0, 0, ""),
    ],
)
def test_word_rank_rejects_letters_that_are_no_arrangement(h, w, text):
    # in order, but not an arrangement of the alphabet
    with pytest.raises(ValueError, match="not a valid colored word"):
        _word_rank(h, w, _letters(text))


def test_rejected_word_stores_no_tree():
    # the tree memo's inverse key is a word's block order, its letters after
    # the swap: an order whose swap is no valid word, and one whose swap is
    # in order but no arrangement of the alphabet, raise on every call and
    # store nothing
    _TREES.cache_clear()
    rejected = [
        ("0* 1 0* 2*", "^the block order does not give a valid colored word$"),  # swaps to "0* 0* 2* 1"
        ("1 0* 1* 3*", "^not a valid colored word$"),  # its own swap; pointed 3 outside the alphabet
    ]
    for text, match in rejected:
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                _letters_to_tree(2, 1, _letters(text))
    assert _TREES.cache_info().currsize == 0
    # the tree at rank 0 pairs with the block order of the word at rank 0
    order = _tree_to_letters(2, 1, (7, 4))
    assert m_star(order) == _word_unrank(2, 1, 0) and _valid_word(ColoredWord(m_star(order), 2, 1).letters)


def test_negative_alphabet():
    with pytest.raises(ValueError, match="bad alphabet"):
        count_colored_words(-1, 0)


# ---------------------------------------------------------------------------
# round trips far past the tables


@st.composite
def grid_and_index(draw):
    h = draw(st.integers(0, 12))
    w = draw(st.integers(0, 12 - h))
    total = count_colored_words(h, w)
    return h, w, draw(st.integers(0, total - 1))


@settings(max_examples=150, deadline=None)
@given(grid_and_index())
def test_round_trips_on_large_grids(hwi):
    h, w, i = hwi
    lengths, width = rect(h, w)
    # the paper's pairing needs as many trees as words
    assert filling_count(lengths, width) == count_colored_words(h, w)
    rows = filling_unrank(lengths, width, i)
    grid_tree(h, w, rows)  # the validating constructor accepts it
    assert filling_rank(lengths, width, rows) == i
    m = ColoredWord(_word_unrank(h, w, i), h, w)  # the constructor checks the alphabet
    assert _valid_word(m.letters)
    assert _word_rank(h, w, m.letters) == i


@st.composite
def perm_and_index(draw):
    n = draw(st.integers(0, 30))
    d = draw(st.integers(1, n)) if n else 0
    return n, d, draw(st.integers(0, stirling(n, d) - 1))


@settings(max_examples=200, deadline=None)
@given(perm_and_index())
def test_perm_round_trips_to_size_30(ndi):
    n, d, i = ndi
    p = _perm_unrank(n, d, i)
    assert sorted(p) == list(range(1, n + 1))
    c = CycleForm(_cycles(p))  # the constructor checks the cycle form
    assert _permutation(c.cycles) == p
    assert cycle_count(p) == len(c.cycles) == d
    assert _perm_rank(c.cycles) == i


@st.composite
def piece_and_index(draw):
    k = draw(st.sampled_from([9, 10]))
    stat = draw(st.sampled_from(STATS))
    d = draw(st.integers(1, k))
    return stat, k, d, draw(st.integers(0, stirling(k, d) - 1))


@settings(max_examples=60, deadline=None)
@given(piece_and_index())
def test_piece_round_trips_past_the_tables(args):
    stat, k, d, i = args
    t = unranked_piece(stat, k, d, i)
    assert t.size == k
    assert stat(t.rows) == d
    assert _piece_rank(t.path.steps, t.rows, (stat, d)) == i


@settings(max_examples=200, deadline=None)
@given(piece_and_index())
def test_tableau_maps_round_trip_past_the_sweeps(args):
    # column deletion, transposition and cut/glue meet every tableau only up
    # to size 7 in this suite (size 8 under `verify --long`); the pieces drawn
    # here have size 9 or 10
    stat, k, d, i = args
    t = unranked_piece(stat, k, d, i)
    assert pt_to_tlt(tlt_to_pt(t)) == t
    flipped = transpose(t)
    assert transpose(flipped) == t
    before, after = stats_of(t), stats_of(flipped)
    assert after.firstRowPoints == before.firstColumnPoints
    assert after.firstColumnPoints == before.firstRowPoints
    for corner in t.path.corner_cells:
        assert glue(*cut_at_corner(t, corner)) == (t, corner)


@st.composite
def marked_runs(draw, n=10):
    perm = draw(st.permutations(range(1, n + 1)))
    padded = (n + 1,) + tuple(perm) + (0,)
    marks = [k for k in range(1, n + 1) if padded[k - 1] > padded[k] > padded[k + 1]]
    assume(marks)
    return MarkedRun(tuple(perm), draw(st.sampled_from(marks)))


@settings(max_examples=40, deadline=None)
@given(marked_runs())
def test_size_10_marked_runs_round_trip(mr):
    t, corner = run_to_corner(mr)
    assert t.size == 10
    assert corner_to_run(t, corner) == mr
