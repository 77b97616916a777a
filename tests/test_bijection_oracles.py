"""Column deletion, cutting and gluing against the per-cell code they replaced.

The maps now make one top-to-bottom pass over the row bitmasks, with a
running mask of the columns seen so far; cutting gathers the corner
rectangle's bits onto its used columns and gluing scatters them back. The
reference versions below are the earlier per-column and per-cell loops
(`_top_rows`, the `zero_dot_right` list, the `col_pos`/`row_m` dicts),
kept here unchanged as oracles: the mask code must give the same objects
and raise the same first `ValueError`.
"""

from itertools import product

import pytest

from oracles import EMPTY_COL_TABLEAU, EMPTY_ROW_TABLEAU, bits
from treelike.bijections import cut_at_corner, glue, pt_to_tlt, tlt_to_pt
from treelike.core import (
    SOUTH,
    WEST,
    BorderPath,
    Cell,
    NonAmbiguousTree,
    PermutationTableau,
    TreeLikeTableau,
    enumerate_nat,
    enumerate_pt,
    enumerate_tlt,
    first_col_points,
    first_row_points,
)

# ---------------------------------------------------------------------------
# oracles


def _top_rows(rows, width):
    # row index of each column's topmost filled cell, -1 for an empty column
    top = [-1] * width
    seen = 0
    for r, mask in enumerate(rows):
        for c in bits(mask & ~seen):
            top[c] = r
        seen |= mask
    return top


def _move_bits(mask, positions):
    # move bit c of the mask to bit positions[c]
    out = 0
    for c in bits(mask):
        out |= 1 << positions[c]
    return out


def oracle_tlt_to_pt(t):
    if t.is_degenerate:
        raise ValueError("no column to delete in a size-0 tableau")
    path = t.path
    top_row = _top_rows(t.rows, path.num_cols)
    new_rows = []
    for r, mask in enumerate(t.rows):
        lam = path.row_lengths[r]
        zero_dot_right = [False] * (lam + 1)
        for c in range(lam - 1, -1, -1):
            zero_dot_right[c] = zero_dot_right[c + 1] or (
                bool((mask >> c) & 1) and top_row[c] != r
            )
        out = 0
        for c in range(1, lam):
            if (mask >> c) & 1:
                one = top_row[c] == r
            else:
                one = not (zero_dot_right[c + 1] or top_row[c] > r)
            if one:
                out |= 1 << (c - 1)
        new_rows.append(out)
    return PermutationTableau(BorderPath(path.steps[:-1]), tuple(new_rows))


def oracle_pt_to_tlt(p):
    path = p.path
    new_rows = [0] * path.num_rows
    for c, r in enumerate(_top_rows(p.rows, path.num_cols)):
        new_rows[r] |= 1 << (c + 1)
    above = 0
    for r, mask in enumerate(p.rows):
        lam = path.row_lengths[r]
        spot = -1
        for c in range(lam):
            if not (mask >> c) & 1 and (above >> c) & 1:
                spot = c
        new_rows[r] |= 1 << (spot + 1) if spot >= 0 else 1
        above |= mask
    return TreeLikeTableau(BorderPath(path.steps + WEST), tuple(new_rows))


def oracle_cut_at_corner(t, corner):
    if corner not in t.path.corner_cells:
        raise ValueError(f"{corner} is not a corner")
    i = corner.row
    n = t.size
    steps = t.path.steps
    r_c = t.path.row_index(i) + 1
    w_head = t.path.col_index(i + 1) + 1
    w_l = w_head - 1
    m_mask = (1 << w_head) - 1
    m_rows = [t.rows[r] & m_mask for r in range(r_c)]
    col_union = 0
    for m in m_rows:
        col_union |= m

    if n - i == 0:
        t_l = EMPTY_ROW_TABLEAU
    else:
        first = col_union & ((1 << w_l) - 1)
        t_l = TreeLikeTableau(
            BorderPath(SOUTH + steps[i + 1 :]), (first,) + t.rows[r_c:]
        )

    if i - 1 == 0:
        t_r = EMPTY_COL_TABLEAU
    else:
        rows_r = tuple(
            ((t.rows[r] >> w_head) << 1) | (1 if m_rows[r] else 0)
            for r in range(r_c - 1)
        )
        t_r = TreeLikeTableau(BorderPath(steps[: i - 1] + WEST), rows_r)

    kept_rows = [r for r in range(r_c) if m_rows[r]]
    kept_cols = list(bits(col_union))
    col_pos = {c: j for j, c in enumerate(kept_cols)}
    nat_rows = [_move_bits(m_rows[r], col_pos) for r in kept_rows]
    nat_path = BorderPath(SOUTH * len(kept_rows) + WEST * len(kept_cols))
    nat = NonAmbiguousTree(TreeLikeTableau(nat_path, tuple(nat_rows)))
    return t_l, t_r, nat


def oracle_glue(t_l, t_r, nat):
    if t_l.is_degenerate and t_l.path.steps != SOUTH:
        raise ValueError("degenerate left piece must be the empty-row tableau")
    if t_r.is_degenerate and t_r.path.steps != WEST:
        raise ValueError("degenerate right piece must be the empty-column tableau")
    fr_l = first_row_points(t_l.rows)
    fc_r = first_col_points(t_r.rows)
    if nat.width != fr_l:
        raise ValueError(
            f"tree width {nat.width} does not match left first-row dots {fr_l}"
        )
    if nat.height != fc_r:
        raise ValueError(
            f"tree height {nat.height} does not match right first-column dots {fc_r}"
        )
    i = t_r.size + 1
    steps = t_r.path.steps[:-1] + SOUTH + WEST + t_l.path.steps[1:]
    w_l = t_l.path.num_cols
    w_head = w_l + 1
    r_c = len(t_r.rows) + 1

    designated_rows = [r for r in range(len(t_r.rows)) if t_r.rows[r] & 1]
    designated_rows.append(r_c - 1)
    designated_cols = list(bits(t_l.rows[0])) if t_l.rows else []
    designated_cols.append(w_l)

    row_m = {
        r: _move_bits(nat.tableau.rows[a], designated_cols)
        for a, r in enumerate(designated_rows)
    }

    masks = []
    for r in range(r_c - 1):
        masks.append(row_m.get(r, 0) | ((t_r.rows[r] >> 1) << w_head))
    masks.append(row_m[r_c - 1])
    masks.extend(t_l.rows[1:])
    t = TreeLikeTableau(BorderPath(steps), tuple(masks))
    return t, Cell(i, i + 1)


# ---------------------------------------------------------------------------
# helpers


def outcome(f, *args):
    """What a call returns, or ValueError and the message it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def all_tlts(max_n):
    for n in range(1, max_n + 1):
        yield from enumerate_tlt(n)


# ---------------------------------------------------------------------------
# column deletion


def test_column_deletion_matches_oracle():
    for t in all_tlts(7):
        assert tlt_to_pt(t) == oracle_tlt_to_pt(t)
    for n in range(1, 8):
        for p in enumerate_pt(n):
            assert pt_to_tlt(p) == oracle_pt_to_tlt(p)


@pytest.mark.parametrize("t", [EMPTY_ROW_TABLEAU, EMPTY_COL_TABLEAU])
def test_column_deletion_rejects_degenerate_like_oracle(t):
    expected = outcome(oracle_tlt_to_pt, t)
    assert expected[0] is ValueError
    assert outcome(tlt_to_pt, t) == expected


# ---------------------------------------------------------------------------
# cutting and gluing


def test_cut_and_glue_match_oracle_at_every_corner():
    pairs = 0
    for t in all_tlts(7):
        for corner in t.path.corner_cells:
            pieces = cut_at_corner(t, corner)
            assert pieces == oracle_cut_at_corner(t, corner)
            assert glue(*pieces) == oracle_glue(*pieces) == (t, corner)
            pairs += 1
    # the corner totals n!(n+4)/6 for n = 1..7
    assert pairs == 1 + 2 + 7 + 32 + 180 + 1200 + 9240


def test_cut_rejects_non_corners_like_oracle():
    for t in all_tlts(4):
        corners = set(t.path.corner_cells)
        for r, c in product(range(t.size + 2), repeat=2):
            if Cell(r, c) in corners:
                continue
            expected = outcome(oracle_cut_at_corner, t, Cell(r, c))
            assert expected[0] is ValueError
            assert outcome(cut_at_corner, t, Cell(r, c)) == expected


def test_glue_accepts_and_rejects_like_oracle():
    """Every left piece, right piece and tree from the cuts up to size 5,
    glued in every combination: the rebuilt tableau or the first error
    message must be the oracle's."""
    lefts, rights = {EMPTY_COL_TABLEAU}, {EMPTY_ROW_TABLEAU}
    trees = set()
    for t in all_tlts(5):
        for corner in t.path.corner_cells:
            t_l, t_r, nat = cut_at_corner(t, corner)
            lefts.add(t_l)
            rights.add(t_r)
            trees.add(nat)
    kinds = set()
    for t_l, t_r, nat in product(lefts, rights, trees):
        expected = outcome(oracle_glue, t_l, t_r, nat)
        assert outcome(glue, t_l, t_r, nat) == expected
        # the first two words name the rejection
        kinds.add(" ".join(expected[1].split()[:2]) if expected[0] is ValueError else "glued")
    assert kinds == {
        "glued", "degenerate left", "degenerate right", "tree width", "tree height"
    }


# each rejection of glue: (left piece, right piece, tree height and width, message)
GLUE_REJECTIONS = {
    "width": (
        EMPTY_ROW_TABLEAU, EMPTY_COL_TABLEAU, (0, 1),
        "tree width 1 does not match left first-row dots 0",
    ),
    "height": (
        EMPTY_ROW_TABLEAU, EMPTY_COL_TABLEAU, (1, 0),
        "tree height 1 does not match right first-column dots 0",
    ),
    "degenerate-left": (
        EMPTY_COL_TABLEAU, EMPTY_COL_TABLEAU, (0, 0),
        "degenerate left piece must be the empty-row tableau",
    ),
    "degenerate-right": (
        EMPTY_ROW_TABLEAU, EMPTY_ROW_TABLEAU, (0, 0),
        "degenerate right piece must be the empty-column tableau",
    ),
}


@pytest.mark.parametrize("case", GLUE_REJECTIONS)
def test_glue_rejection_messages(case):
    t_l, t_r, hw, message = GLUE_REJECTIONS[case]
    nat = next(enumerate_nat(*hw))
    assert outcome(oracle_glue, t_l, t_r, nat) == (ValueError, message)
    assert outcome(glue, t_l, t_r, nat) == (ValueError, message)
