"""The counting surveys against the per-object sweeps they replaced.

`tlt_survey` and `pt_survey` count the fillings of each border path with a
frontier DP, and `perm_survey` reads each permutation with bit arithmetic.
The reference versions below are the earlier sweeps, which build every
filling or permutation and tally it one statistic at a time; they are kept
here unchanged as oracles, and every field of every survey must agree with
them wherever both run.
"""

import math
from itertools import permutations

import pytest

from treelike.core import (
    NOC_CLASSES,
    SOUTH,
    BorderPath,
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
    ascent_values,
    cycle_count,
    displacement,
    noc_count,
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
    s = PermSurvey(n)
    s.bi_counts = {i: 0 for i in range(1, n)}
    for p in permutations(range(1, n + 1)):
        s.count += 1
        asc = ascent_values(p)
        for i in range(1, n):
            if i in asc and i + 1 not in asc:
                s.bi_counts[i] += 1
        s.runs1_total += len(runs_of_size_1(p))
        k = cycle_count(p)
        s.cycle_dist[k] = s.cycle_dist.get(k, 0) + 1
        s.displacement_total += displacement(p)
        for j in range(1, n - 1):
            if p[j - 1] > p[j] > p[j + 1]:
                s.interior_dd_total += 1
        s.excedance_total += sum(1 for j, v in enumerate(p, start=1) if v > j)
        if p[-1] == n:
            s.last_is_n += 1
    return s


def sweep_tlt_survey(n):
    s = TltSurvey(n)
    s.class_weight = {c: {} for c in NOC_CLASSES}
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
            s.fr_dist[fr] = s.fr_dist.get(fr, 0) + 1
            rk = (k, fr - 1, fc - 1)
            s.rows_weight[rk] = s.rows_weight.get(rk, 0) + 1
            occ = 0
            for (r, c), label in zip(cpos, clabels):
                s.corner_pos[label] = s.corner_pos.get(label, 0) + 1
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
    return s


def sweep_pt_survey(n):
    s = PtSurvey(n)
    for steps in _pt_paths(n):
        path = BorderPath(steps)
        ncor = len(path.corner_cells)
        clabels = [c.row for c in path.corner_cells]
        ends_south = steps[-1] == SOUTH
        cnt = sum(1 for _ in pt_fillings(path.row_lengths, path.num_cols))
        s.count += cnt
        s.corners_total += ncor * cnt
        for label in clabels:
            s.corner_pos[label] = s.corner_pos.get(label, 0) + cnt
        if ends_south:
            s.last_south += cnt
    return s


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


@pytest.mark.parametrize("n", range(1, 9))
def test_surveys_equal_the_sweeps(n):
    # vars() compares every field, dictionaries included
    assert vars(tlt_survey(n)) == vars(sweep_tlt_survey(n))
    assert vars(pt_survey(n)) == vars(sweep_pt_survey(n))
    assert vars(perm_survey(n)) == vars(sweep_perm_survey(n))


@pytest.mark.slow
def test_tlt_survey_equals_the_sweep_n9():
    assert vars(tlt_survey(9)) == vars(sweep_tlt_survey(9))


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


def test_tlt_survey_n10_without_a_sweep():
    s = tlt_survey(10)
    assert s.count == math.factorial(10)
    assert s.fc_dist == s.fr_dist == stirling_row(10)
    assert s.corners_total == tlt_corner_count(10)
    assert s.noc_total == noc_count(10)
    assert s.transfer_delta_total == math.factorial(9)

