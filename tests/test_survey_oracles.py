"""The counting surveys against the per-object sweeps and the DPs they replaced.

`tlt_survey` and `pt_survey` count the fillings of all border paths of one
width at once, with a transfer-matrix DP over the lattice of path prefixes,
and `perm_survey` sums the permutation statistics with a positional and an
insertion DP, while `perm_cycle_dist` reads each permutation. The reference
versions below are the earlier sweeps, which build every filling or
permutation and tally it one statistic at a time; the surveys as they were
before the lattice, which sum one frontier DP per border path
(`oracles.tlt_filling_tallies` and `oracles.pt_filling_count`); the fused
per-permutation pass that `perm_survey` was; and the tuple-keyed tally DP
that `tlt_filling_tallies` was. They are kept here as oracles, and every
field of every survey must agree with them wherever both run. The sweeps also return the tallies that the surveys do not keep (the
corners by position, the first-row distribution, the permutations that
end in n and the tree-like tableaux whose path ends with a south then a
west step), which are set against `oracles.corner_positions`,
`oracles.first_row_dist` and (n - 1)!.
"""

import inspect
import math
import sys
import types
from itertools import permutations, product
from operator import add

import pytest

from oracles import (
    ascent_values,
    bits,
    corner_positions,
    cycle_count,
    displacement,
    first_row_dist,
    pt_filling_count,
    tlt_dot_counts,
    tlt_filling_tallies,
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
    _tlt_paths,
    first_col_points,
    first_row_points,
    pt_fillings,
    tlt_fillings,
)
from treelike import abpoly, counting, verify
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
    """(TltSurvey, corners by row label, first-row distribution, tableaux
    whose path ends with a south then a west step)."""
    s = TltSurvey()
    s.class_weight = {c: {} for c in NOC_CLASSES}
    corner_pos, fr_dist = {}, {}
    transfer_delta = 0
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
            transfer_delta += delta
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
    return s, corner_pos, fr_dist, transfer_delta


def sweep_pt_survey(n):
    """(PtSurvey, corners by row label)."""
    s = PtSurvey()
    corner_pos = {}
    for steps in (s[:-1] for s in _tlt_paths(n)):
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


def path_tlt_survey(n):
    """(`tlt_survey` summed path by path, tableaux whose path ends with a
    south then a west step): each border path's fillings by first-row and
    first-column dots, with their undotted corners by class, from
    `tlt_filling_tallies`. The corners and the path's end are constants of
    the path times its count, and a path's occupied corners are its corners
    less the undotted ones."""
    s = TltSurvey()
    s.class_weight = {c: {} for c in NOC_CLASSES}
    transfer_delta = 0
    for steps in _tlt_paths(n):
        path = BorderPath(steps)
        k = path.num_rows
        ncor = len(path.corner_cells)
        for (fr, fc), (cnt, *classes) in tlt_filling_tallies(path.row_lengths, path.num_cols).items():
            key = (fr - 1, fc - 1)
            noc = sum(classes)
            s.count += cnt
            s.corners_total += ncor * cnt
            s.noc_total += noc
            if steps[n - 1] == SOUTH:
                transfer_delta += cnt
            for d, dkey, x in (
                (s.weight, key, cnt),
                (s.fc_dist, fc, cnt),
                (s.rows_weight, (k,) + key, cnt),
                (s.occ_weight, key, ncor * cnt - noc),
                (s.noc_weight, key, noc),
                *((s.class_weight[c], key, x) for c, x in zip(NOC_CLASSES, classes)),
            ):
                if x:
                    d[dkey] = d.get(dkey, 0) + x
    s.occupied_total = s.corners_total - s.noc_total
    return s, transfer_delta


def path_pt_survey(n):
    """`pt_survey` summed path by path from `pt_filling_count`."""
    s = PtSurvey()
    for steps in (s[:-1] for s in _tlt_paths(n)):
        path = BorderPath(steps)
        cnt = pt_filling_count(path.row_lengths, path.num_cols)
        s.count += cnt
        s.corners_total += len(path.corner_cells) * cnt
        if steps[-1] == SOUTH:
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


def _tlt_survey_equals_the_sweep(n):
    survey, corner_pos, fr_dist, transfer_delta = sweep_tlt_survey(n)
    assert vars(tlt_survey(n)) == vars(survey)
    assert corner_pos == corner_positions(n, "tlt")
    assert fr_dist == first_row_dist(n)
    assert transfer_delta == math.factorial(n - 1)


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


def _surveys_equal_the_path_sums(n):
    survey, transfer_delta = path_tlt_survey(n)
    assert vars(tlt_survey(n)) == vars(survey), n
    assert transfer_delta == math.factorial(n - 1), n
    assert vars(pt_survey(n)) == vars(path_pt_survey(n)), n


@pytest.mark.parametrize("n", range(1, 10))
def test_lattice_surveys_equal_the_path_sums(n):
    # one DP per width against one DP per border path, every field
    _surveys_equal_the_path_sums(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [10, 11])
def test_lattice_surveys_equal_the_path_sums_slow(n):
    _surveys_equal_the_path_sums(n)


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
        for steps in (s[:-1] for s in _tlt_paths(n)):
            p = BorderPath(steps)
            expected = sum(1 for _ in pt_fillings(p.row_lengths, p.num_cols))
            assert pt_filling_count(p.row_lengths, p.num_cols) == expected, steps


def _paths_agree_with_the_tuple_dp(n):
    for steps in _tlt_paths(n):
        p = BorderPath(steps)
        args = (p.row_lengths, p.num_cols)
        tallies = tlt_filling_tallies(*args)
        assert tallies == tuple_tlt_filling_tallies(*args), steps
        # the joint count-only DP that the side-piece offsets are held against
        assert tlt_dot_counts(*args) == {key: t[0] for key, t in tallies.items()}, steps


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


def test_tlt_survey_n10_to_n12_without_a_sweep():
    # no oracle runs past 11 in the slow tier; the first-row distribution
    # of the per-path count DP takes over a second at 12, so it runs at 10
    assert tlt_survey(10).fc_dist == first_row_dist(10)
    for n in (10, 11, 12):
        s = tlt_survey(n)
        assert s.count == math.factorial(n)
        assert s.fc_dist == stirling_row(n)
        assert s.corners_total == tlt_corner_count(n)
        assert s.noc_total == noc_count(n)


def _lattice_blocks(k, w):
    """{(fr - 1, fc - 1): (fillings, corners, occupied, AB, A1, 1B, OneOne)}
    of the tree-like tableaux with k rows and w columns, read off
    `counting._lattice`'s lanes for the paths that end with a west step."""
    lanes, _, total = counting._lattice(k, w, True)
    lane = (1 << lanes) - 1
    out = {}
    for key in product(range(w), range(k)):
        tally = tuple(total >> i * lanes & lane for i in range(7))
        if any(tally):
            out[key] = tally
        total >>= 7 * lanes
    assert total == 0
    return out


def test_lattice_tallies_are_closed_under_transposition():
    # tlt_survey walks only the shapes with at least as many rows as
    # columns and adds each tally again for the transpose: the first-row
    # and first-column dots swap, and so do the classes A1 and 1B
    for k in range(1, 10):
        for w in range(1, 11 - k):
            tall = _lattice_blocks(k, w)
            wide = _lattice_blocks(w, k)
            mirrored = {
                (left, top): (count, corners, occ, ab, b1, a1, one)
                for (top, left), (count, corners, occ, ab, a1, b1, one) in wide.items()
            }
            assert tall == mirrored, (k, w)
            assert sum(t[0] for t in tall.values()) > 0, (k, w)


def _planted_counting(monkeypatch, line, replacement):
    """A copy of `counting` with `line` replaced, bound as abpoly's survey."""
    source = inspect.getsource(counting)
    assert source.count(line) == 1
    planted = types.ModuleType("treelike.planted_counting")
    planted.__package__ = "treelike"
    monkeypatch.setitem(sys.modules, planted.__name__, planted)
    exec(compile(source.replace(line, replacement), counting.__file__, "exec"), vars(planted))
    monkeypatch.setattr(abpoly, "tlt_survey", planted.tlt_survey)
    return planted


def test_planted_class_drop_fails_noc_classes(monkeypatch):
    # a copy of `counting` whose lattice never adds to the OneOne lane: the
    # corners and the occupied corners have lanes of their own, so the four
    # classes no longer add up to the undotted corners, and only the
    # partition part of the row can see it (OneOne has no closed form)
    line = "classes = [corner | 1 << (3 + i) * lanes for i in range(4)]"
    planted = _planted_counting(monkeypatch, line, line.replace("range(4)]", "range(3)] + [corner]"))
    (row,) = verify.run_check_at("noc-classes", 5)
    assert not row.match
    assert row.actual == row.expected.replace("partition=ok", "partition=bad")
    # the copy is the survey but for the dropped lane
    assert planted.tlt_survey(5).class_weight["OneOne"] == {}
    assert vars(planted.tlt_survey(5)) == vars(counting.tlt_survey(5)) | {
        "class_weight": counting.tlt_survey(5).class_weight | {"OneOne": {}}
    }


def test_planted_unswapped_transpose_fails_noc_classes(monkeypatch):
    # a copy of `counting` that adds a transposed shape's undotted corners
    # under the classes of the shape it walked: the partition still holds,
    # but the weights of A1 and 1B are wrong from n = 4, the first size
    # where either has a nonzero closed form
    swapped = '("AB", "1B", "A1", "OneOne")'
    line = f"shapes.append((w, (left, top), {swapped}))"
    planted = _planted_counting(monkeypatch, line, line.replace(swapped, "NOC_CLASSES"))
    rows = [verify.run_check_at("noc-classes", n)[0] for n in range(3, 6)]
    assert [row.match for row in rows] == [True, False, False]
    assert rows[1].actual.endswith(";partition=ok")
    # only the class weights differ from the survey
    survey = vars(counting.tlt_survey(4))
    assert vars(planted.tlt_survey(4)) | {"class_weight": survey["class_weight"]} == survey
