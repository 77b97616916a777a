"""The counting surveys against the per-object sweeps and the DPs they replaced.

`tlt_survey` and `pt_survey` count the fillings of each border path with a
frontier DP, and `perm_survey` sums the permutation statistics with a
positional and an insertion DP, while `perm_cycle_dist` reads each
permutation. The reference versions below are the earlier sweeps, which
build every filling or permutation and tally it one statistic at a time,
the fused per-permutation pass that `perm_survey` was, and the tuple-keyed
tally DP that `core.tlt_filling_tallies` was; they are kept here as
oracles, and every field of every survey must agree with them wherever both
run. The sweeps also return the tallies that the surveys do not keep (the
corners by position, the first-row distribution and the permutations that
end in n), which are set against `oracles.corner_positions`,
`oracles.first_row_dist` and (n - 1)!.
"""

import math
from itertools import permutations
from operator import add

import pytest

from oracles import (
    ascent_values,
    bits,
    corner_positions,
    cycle_count,
    displacement,
    first_row_dist,
)
from treelike.core import (
    _EMPTY,
    _FILLED,
    _TLT_RULES,
    NOC_CLASSES,
    SOUTH,
    BorderPath,
    _cell_moves,
    _noc_class_at,
    _pt_paths,
    _tlt_paths,
    first_col_points,
    first_row_points,
    pt_filling_count,
    pt_fillings,
    tlt_filling_tallies,
    tlt_fillings,
)
from treelike.counting import (
    PermSurvey,
    PtSurvey,
    TltSurvey,
    noc_count,
    perm_cycle_dist,
    perm_survey,
    pt_survey,
    runs_of_size_1,
    stirling_row,
    tlt_corner_count,
    tlt_survey,
)

# ---------------------------------------------------------------------------
# oracles


def sweep_perm_survey(n):
    """(PermSurvey, cycle distribution, permutations that end in n), one
    statistic at a time."""
    s = PermSurvey()
    cycles = {}
    last_is_n = 0
    s.bi_counts = {i: 0 for i in range(1, n)}
    for p in permutations(range(1, n + 1)):
        s.count += 1
        asc = ascent_values(p)
        for i in range(1, n):
            if i in asc and i + 1 not in asc:
                s.bi_counts[i] += 1
        s.runs1_total += len(runs_of_size_1(p))
        k = cycle_count(p)
        cycles[k] = cycles.get(k, 0) + 1
        s.displacement_total += displacement(p)
        for j in range(1, n - 1):
            if p[j - 1] > p[j] > p[j + 1]:
                s.interior_dd_total += 1
        s.excedance_total += sum(1 for j, v in enumerate(p, start=1) if v > j)
        if p[-1] == n:
            last_is_n += 1
    return s, cycles, last_is_n


def fused_perm_survey(n):
    """(PermSurvey, cycle distribution, permutations that end in n) from
    one pass over all permutations of [n], tallying every statistic with
    integer arithmetic on each permutation: `perm_survey` and the cycle pass
    before the DPs."""
    by_bi: dict[int, int] = {}
    cycles: dict[int, int] = {}
    runs1 = interior_dd = disp = exc = last_is_n = 0
    end = 1 << (n - 1)
    # letters are 0-based here: value v + 1 of the permutation is v
    for p in permutations(range(n)):
        # bit v of asc: value v is an ascent value (its right neighbour is
        # larger; the last letter's is the virtual n). Bit j of des: the
        # letter at position j descends (the last one into the sentinel 0).
        asc = 1 << p[-1]
        des = end
        for j in range(n - 1):
            v = p[j]
            if p[j + 1] > v:
                asc |= 1 << v
            else:
                des |= 1 << j
            if v > j:  # the last letter, at position n - 1, never exceeds it
                disp += v - j
                exc += 1
        # bit v: values v and v + 1 are an ascent and a descent value
        bi = asc & ~(asc >> 1) & (end - 1)
        by_bi[bi] = by_bi.get(bi, 0) + 1
        # a run of size 1 descends from its left neighbour (or the sentinel
        # n + 1 before the word) into its right one
        runs1 += (des & (des << 1 | 1)).bit_count()
        # an interior double descent is the same away from the sentinels
        interior_dd += (des & des << 1 & (end - 1)).bit_count()
        k = 0
        for i in range(n):
            # i opens a cycle exactly when it is the least letter on it
            j = p[i]
            while j > i:
                j = p[j]
            if j == i:
                k += 1
        cycles[k] = cycles.get(k, 0) + 1
        if p[-1] == n - 1:
            last_is_n += 1
    bi_counts = {i: 0 for i in range(1, n)}
    for mask, cnt in by_bi.items():
        for v in bits(mask):
            bi_counts[v + 1] += cnt
    survey = PermSurvey(
        count=sum(cycles.values()),
        bi_counts=bi_counts,
        runs1_total=runs1,
        displacement_total=disp,
        interior_dd_total=interior_dd,
        excedance_total=exc,
    )
    return survey, cycles, last_is_n


def tuple_tlt_filling_tallies(lengths, width):
    """`tlt_filling_tallies` as a DP whose state is the tuple (seen, lower,
    flag, fr, fc) and whose value is the tuple (fillings, AB, A1, 1B,
    OneOne). `seen` is the key's column mask; its bit for the move's column
    says whether the cell above is covered. `lower` keeps, for the corner
    columns, whether a filled cell sits in row index >= 1. `flag` is 0
    while the row has no filled cell, 1 when its only one is in column 0
    and 2 otherwise (rows without a corner use 2 for any). `fr`, `fc` count
    the filled cells of the first row and of the first column."""
    moves = _cell_moves(lengths, _TLT_RULES)
    corner_rows = {r for r, lam in enumerate(lengths) if lam > max(lengths[r + 1 :], default=0)}
    corner_cols = 0
    for r in corner_rows:
        corner_cols |= 2 << (lengths[r] - 1)
    states = {(0, 0, 0, 0, 0): (1, 0, 0, 0, 0)}
    for r, bit, may, end in moves:
        corner = end and r in corner_rows
        # what a filled cell here does to the flag, lower, fr and fc
        if end:
            flag_to = 0
        else:
            flag_to = 1 if bit == 2 and r in corner_rows else 2
        lower_to = bit & corner_cols if r else 0
        dfr = 1 if r == 0 else 0
        dfc = 1 if bit == 2 else 0
        nxt = {}
        get = nxt.get
        for key, val in states.items():
            seen, lower, flag, fr, fc = key
            ok = may[(2 if flag else 0) | (1 if seen & bit else 0)]
            if ok & _EMPTY:
                if corner:
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
            if ok & _FILLED:
                low = lower & ~bit if corner else lower | lower_to
                to = (seen | bit, low, flag_to, fr + dfr, fc + dfc)
                old = get(to)
                nxt[to] = val if old is None else tuple(map(add, old, val))
        states = nxt
    done = ((1 << width) - 1) << 1
    out = {}
    for (seen, _, _, fr, fc), val in states.items():
        if seen == done:
            old = out.get((fr, fc))
            out[(fr, fc)] = val if old is None else tuple(map(add, old, val))
    return out


def sweep_tlt_survey(n):
    """(TltSurvey, corners by row label, first-row distribution)."""
    s = TltSurvey()
    s.class_weight = {c: {} for c in NOC_CLASSES}
    corner_pos, fr_dist = {}, {}
    for steps in _tlt_paths(n):
        path = BorderPath(steps)
        lengths = path.row_lengths
        width = path.num_cols
        k = path.num_rows
        cpos = path.corner_grid_positions
        clabels = [c.row for c in path.corner_cells]
        delta = 1 if steps[n - 1] == SOUTH else 0
        for rows in tlt_fillings(lengths, width):
            s.count += 1
            s.corners_total += len(cpos)
            s.transfer_delta_total += delta
            fr = first_row_points(rows)
            fc = first_col_points(rows)
            key = (fr - 1, fc - 1)
            s.weight[key] = s.weight.get(key, 0) + 1
            s.fc_dist[fc] = s.fc_dist.get(fc, 0) + 1
            fr_dist[fr] = fr_dist.get(fr, 0) + 1
            rk = (k, fr - 1, fc - 1)
            s.rows_weight[rk] = s.rows_weight.get(rk, 0) + 1
            occ = 0
            for (r, c), label in zip(cpos, clabels):
                corner_pos[label] = corner_pos.get(label, 0) + 1
                if (rows[r] >> c) & 1:
                    occ += 1
                else:
                    cw = s.class_weight[_noc_class_at(rows, r, c)]
                    cw[key] = cw.get(key, 0) + 1
            s.occupied_total += occ
            s.noc_total += len(cpos) - occ
            if occ:
                s.occ_weight[key] = s.occ_weight.get(key, 0) + occ
            if len(cpos) - occ:
                s.noc_weight[key] = s.noc_weight.get(key, 0) + len(cpos) - occ
    return s, corner_pos, fr_dist


def sweep_pt_survey(n):
    """(PtSurvey, corners by row label)."""
    s = PtSurvey()
    corner_pos = {}
    for steps in _pt_paths(n):
        path = BorderPath(steps)
        ncor = len(path.corner_cells)
        clabels = [c.row for c in path.corner_cells]
        ends_south = steps[-1] == SOUTH
        cnt = sum(1 for _ in pt_fillings(path.row_lengths, path.num_cols))
        s.count += cnt
        s.corners_total += ncor * cnt
        for label in clabels:
            corner_pos[label] = corner_pos.get(label, 0) + cnt
        if ends_south:
            s.last_south += cnt
    return s, corner_pos


def swept_tallies(path):
    """tlt_filling_tallies(path) read off the fillings one by one."""
    out = {}
    for rows in tlt_fillings(path.row_lengths, path.num_cols):
        key = (first_row_points(rows), first_col_points(rows))
        tally = out.setdefault(key, [0] * (1 + len(NOC_CLASSES)))
        tally[0] += 1
        for r, c in path.corner_grid_positions:
            if not (rows[r] >> c) & 1:
                tally[1 + NOC_CLASSES.index(_noc_class_at(rows, r, c))] += 1
    return {key: tuple(t) for key, t in out.items()}


# ---------------------------------------------------------------------------
# tests


def _tlt_survey_equals_the_sweep(n):
    survey, corner_pos, fr_dist = sweep_tlt_survey(n)
    assert vars(tlt_survey(n)) == vars(survey)
    assert corner_pos == corner_positions(n, "tlt")
    assert fr_dist == first_row_dist(n)


def _perm_survey_equals_the_fused_pass(n):
    survey, cycles, last_is_n = fused_perm_survey(n)
    assert vars(perm_survey(n)) == vars(survey)
    assert perm_cycle_dist(n) == cycles
    assert last_is_n == math.factorial(n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_surveys_equal_the_sweeps(n):
    # vars() compares every field, dictionaries included; the tallies the
    # surveys do not keep are set against the oracles
    _tlt_survey_equals_the_sweep(n)
    survey, corner_pos = sweep_pt_survey(n)
    assert vars(pt_survey(n)) == vars(survey)
    assert corner_pos == corner_positions(n, "pt")
    survey, cycles, last_is_n = sweep_perm_survey(n)
    assert vars(perm_survey(n)) == vars(survey)
    assert perm_cycle_dist(n) == cycles
    assert last_is_n == math.factorial(n - 1)


@pytest.mark.slow
def test_tlt_survey_equals_the_sweep_n9():
    _tlt_survey_equals_the_sweep(9)


@pytest.mark.parametrize("n", range(1, 9))
def test_split_perm_survey_equals_the_fused_pass(n):
    _perm_survey_equals_the_fused_pass(n)


@pytest.mark.slow
def test_split_perm_survey_equals_the_fused_pass_n9():
    _perm_survey_equals_the_fused_pass(9)


def test_dp_tallies_equal_the_fillings_path_by_path():
    # the surveys sum these over the paths; compare them before summing
    for n in range(1, 8):
        for steps in _tlt_paths(n):
            p = BorderPath(steps)
            assert tlt_filling_tallies(p.row_lengths, p.num_cols) == swept_tallies(p), steps
        for steps in _pt_paths(n):
            p = BorderPath(steps)
            expected = sum(1 for _ in pt_fillings(p.row_lengths, p.num_cols))
            assert pt_filling_count(p.row_lengths, p.num_cols) == expected, steps


def _paths_agree_with_the_tuple_dp(n):
    for steps in _tlt_paths(n):
        p = BorderPath(steps)
        args = (p.row_lengths, p.num_cols)
        assert tlt_filling_tallies(*args) == tuple_tlt_filling_tallies(*args), steps


def test_lane_dp_equals_the_tuple_dp():
    for n in range(1, 9):
        _paths_agree_with_the_tuple_dp(n)
    # the 8 x 8 square: its count needs 34 bits, far past any path above,
    # and its lanes are wider than 64 bits
    square = ((8,) * 8, 8)
    tallies = tlt_filling_tallies(*square)
    assert tallies == tuple_tlt_filling_tallies(*square)
    assert sum(t[0] for t in tallies.values()).bit_length() == 34


@pytest.mark.slow
def test_lane_dp_equals_the_tuple_dp_n9():
    _paths_agree_with_the_tuple_dp(9)


def test_tlt_survey_n10_without_a_sweep():
    s = tlt_survey(10)
    assert s.count == math.factorial(10)
    assert s.fc_dist == first_row_dist(10) == stirling_row(10)
    assert s.corners_total == tlt_corner_count(10)
    assert s.noc_total == noc_count(10)
    assert s.transfer_delta_total == math.factorial(9)
