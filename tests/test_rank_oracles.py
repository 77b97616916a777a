"""Rank and unrank by counting against the grid tables they replaced.

The corner-to-run map pairs the i-th non-ambiguous tree of an (h, w) grid
with the i-th colored word on the (h, w) alphabet. It finds i by counting
completions: `filling_rank`/`filling_unrank` over the tree-like filling
rules and `_word_rank`/`_word_unrank` over the colored-word rules. The
reference below is the earlier table, which lists and validates every tree
and every word of a grid and buckets them by type; it is kept here
unchanged as the oracle, together with the corner-to-run composition that
read it.
"""

from functools import lru_cache
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelike.bijections import (
    ColoredWord,
    CycleForm,
    _perms_by_cycles,
    _tlts_by,
    _word_rank,
    _word_unrank,
    corner_to_run,
    count_colored_words,
    cut_at_corner,
    enumerate_colored_words,
    glue,
    parse_colored_word,
    run_to_corner,
    run_to_triplet,
    triplet_to_run,
)
from treelike.core import (
    SOUTH,
    WEST,
    BorderPath,
    NonAmbiguousTree,
    TreeLikeTableau,
    _tlt_paths,
    enumerate_nat,
    enumerate_tlt,
    filling_count,
    filling_rank,
    filling_unrank,
    first_col_points,
    first_row_points,
    pt_filling_count,
    pt_fillings,
    tlt_fillings,
    transpose,
)

# ---------------------------------------------------------------------------
# oracles


def _bucket(items, key):
    buckets = {}
    for x in items:
        buckets.setdefault(key(x), []).append(x)
    ranks = {x: i for lst in buckets.values() for i, x in enumerate(lst)}
    return buckets, ranks


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
    l_cycles = CycleForm.from_permutation(perms_l[fr_l][ranks_l[t_l]])

    _, ranks_r = _tlts_by(first_col_points, t_r.size)
    perms_r, _ = _perms_by_cycles(t_r.size)
    r_cycles = CycleForm.from_permutation(perms_r[fc_r][ranks_r[t_r]])

    grid, ranks = table_grid(fr_l, fc_r)
    m = grid[ColoredWord][ranks[NonAmbiguousTree(transpose(nat.tableau))]]
    return triplet_to_run(l_cycles, r_cycles, m)


def table_run_to_corner(mr):
    l_cycles, r_cycles, m = run_to_triplet(mr)

    buckets_l, _ = _tlts_by(first_row_points, l_cycles.size)
    _, perm_ranks_l = _perms_by_cycles(l_cycles.size)
    t_l = buckets_l[m.h][perm_ranks_l[l_cycles.to_permutation()]]

    buckets_r, _ = _tlts_by(first_col_points, r_cycles.size)
    _, perm_ranks_r = _perms_by_cycles(r_cycles.size)
    t_r = buckets_r[m.w][perm_ranks_r[r_cycles.to_permutation()]]

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
        assert _word_rank(m) == i
        assert _word_unrank(h, w, i) == m


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


@pytest.mark.parametrize("n", range(1, 7))
def test_corner_to_run_matches_table_composition(n):
    for t in enumerate_tlt(n):
        for corner in t.path.corner_cells:
            mr = corner_to_run(t, corner)
            assert mr == table_corner_to_run(t, corner)
            assert run_to_corner(mr) == table_run_to_corner(mr) == (t, corner)


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


@pytest.mark.parametrize(
    "rows,match",
    [
        ((0b10, 0b01), "row 1, column index 0 must hold a dot"),  # no root dot
        ((0b11, 0b11), "may not hold a dot"),  # a dot with two parents
        ((0b01, 0b01), "must hold a dot"),  # the right column stays empty
        ((0b111, 0b01), "outside its row"),
        ((0b11,), "row count"),
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


@pytest.mark.parametrize("text", ["1* 4 0* 2* 1 2 3* 3", "2* 1* 0*", "0* 1"])
def test_invalid_word_rank_raises(text):
    m = parse_colored_word(text)
    assert not m.is_valid()
    with pytest.raises(ValueError, match="not a valid colored word"):
        _word_rank(m)


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
    m = _word_unrank(h, w, i)
    assert m.is_valid()
    assert _word_rank(m) == i
