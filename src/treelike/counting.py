"""Closed-form counts, permutation statistics and exhaustive surveys.

Formulas divide factored binomial products, never floats; every division
checks exact divisibility. Surveys walk the full object catalogue for one
size and tally every statistic in a single pass, so the expensive sweeps
are shared across checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .core import (
    NOC_CLASSES,
    SOUTH,
    BorderPath,
    first_col_points,
    first_row_points,
    pt_fillings,
    tlt_fillings,
    _noc_class_at,
    _pt_paths,
    _tlt_paths,
)


def exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{num} not divisible by {den}")
    return q


# ---------------------------------------------------------------------------
# closed forms


def tlt_corner_count(n: int) -> int:
    """Total corners over all tree-like tableaux of size n."""
    if n < 1:
        raise ValueError("size must be positive")
    if n == 1:
        return 1
    return exact_div(factorial(n) * (n + 4), 6)


def pt_corner_count(n: int) -> int:
    """Total corners over all permutation tableaux of length n."""
    if n < 1:
        raise ValueError("length must be positive")
    if n == 1:
        return 0
    return exact_div(factorial(n - 1) * (n * n + 4 * n - 6), 6)


def occupied_count(n: int) -> int:
    """Total occupied corners over all tree-like tableaux of size n."""
    if n < 1:
        raise ValueError("size must be positive")
    return factorial(n)


def noc_count(n: int) -> int:
    """Total non-occupied corners over all tree-like tableaux of size n."""
    if n < 1:
        raise ValueError("size must be positive")
    if n <= 2:
        return 0
    return exact_div(factorial(n) * (n - 2), 6)


def runs1_total(n: int) -> int:
    """Total runs of size 1 over all permutations of [n]."""
    if n < 1:
        raise ValueError("size must be positive")
    if n == 1:
        return 1
    return (2 * comb(n, 2) + comb(n, 3)) * factorial(n - 2)


def xn_count(n: int) -> int:
    """Permutation tableaux of length n whose last border edge is South."""
    if n < 1:
        raise ValueError("length must be positive")
    return factorial(n - 1)


def formula_bi(n: int, i: int) -> int:
    """Closed form for the i-th corner-position count, 1 <= i < n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    f = factorial(n - 2)
    return (i - 1) * f + (n - i) * f + (n - i) * (i - 1) * f


def displacement_formula(n: int) -> int:
    """Total displacement over all permutations of [n]."""
    if n < 1:
        raise ValueError("size must be positive")
    return factorial(n - 1) * comb(n + 1, 3)


@lru_cache(maxsize=None)
def stirling_row(n: int) -> dict[int, int]:
    """Unsigned Stirling numbers of the first kind, c(n, k) for k = 1..n."""
    if n < 1:
        raise ValueError("size must be positive")
    if n == 1:
        return {1: 1}
    prev = stirling_row(n - 1)
    return {
        k: prev.get(k - 1, 0) + (n - 1) * prev.get(k, 0) for k in range(1, n + 1)
    }


# ---------------------------------------------------------------------------
# permutation statistics

# Ascents and descents are read on values: v is a descent of p when the
# letter right of v is smaller, an ascent when it is larger, with a virtual
# n+1 appended so the last letter is always an ascent value.


def ascent_values(p: tuple[int, ...]) -> set[int]:
    n = len(p)
    out = set()
    for j, v in enumerate(p):
        nxt = p[j + 1] if j + 1 < n else n + 1
        if nxt > v:
            out.add(v)
    return out


def descent_values(p: tuple[int, ...]) -> set[int]:
    return set(range(1, len(p) + 1)) - ascent_values(p)


def runs_of_size_1(p: tuple[int, ...]) -> list[int]:
    """Positions j with p[j-1] > p[j] > p[j+1], under sentinels n+1 and 0."""
    n = len(p)
    out = []
    for j in range(1, n + 1):
        prev = p[j - 2] if j > 1 else n + 1
        nxt = p[j] if j < n else 0
        if prev > p[j - 1] > nxt:
            out.append(j)
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


def count_bi(n: int, i: int) -> int:
    """Permutations of [n] where value i is an ascent and i+1 a descent."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    return perm_survey(n).bi_counts[i]


@dataclass
class PermSurvey:
    n: int
    count: int = 0
    bi_counts: dict[int, int] = field(default_factory=dict)
    runs1_total: int = 0
    cycle_dist: dict[int, int] = field(default_factory=dict)
    displacement_total: int = 0
    interior_dd_total: int = 0
    excedance_total: int = 0
    last_is_n: int = 0


@lru_cache(maxsize=None)
def perm_survey(n: int) -> PermSurvey:
    """One pass over all permutations of [n], tallying every statistic the
    checks consume."""
    if n < 1:
        raise ValueError("size must be positive")
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


# ---------------------------------------------------------------------------
# tableau surveys


@dataclass
class TltSurvey:
    n: int
    count: int = 0
    corners_total: int = 0
    occupied_total: int = 0
    noc_total: int = 0
    corner_pos: dict[int, int] = field(default_factory=dict)
    weight: dict[tuple[int, int], int] = field(default_factory=dict)
    occ_weight: dict[tuple[int, int], int] = field(default_factory=dict)
    noc_weight: dict[tuple[int, int], int] = field(default_factory=dict)
    class_weight: dict[str, dict[tuple[int, int], int]] = field(default_factory=dict)
    rows_weight: dict[tuple[int, int, int], int] = field(default_factory=dict)
    fc_dist: dict[int, int] = field(default_factory=dict)
    fr_dist: dict[int, int] = field(default_factory=dict)
    transfer_delta_total: int = 0


@lru_cache(maxsize=None)
def tlt_survey(n: int) -> TltSurvey:
    """One pass over all tree-like tableaux of size n, on raw bitmask
    fillings for speed."""
    if n < 1:
        raise ValueError("size must be positive")
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


@dataclass
class PtSurvey:
    n: int
    count: int = 0
    corners_total: int = 0
    corner_pos: dict[int, int] = field(default_factory=dict)
    last_south: int = 0


@lru_cache(maxsize=None)
def pt_survey(n: int) -> PtSurvey:
    """One pass over all permutation tableaux of length n."""
    if n < 1:
        raise ValueError("length must be positive")
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
