"""Closed-form counts, permutation statistics and exhaustive surveys.

Formulas divide factored binomial products, never floats; every division
checks exact divisibility. A survey tallies every statistic the checks read
for one size, once, so the sweeps are shared across checks. The permutation
survey visits every permutation. The tableau surveys never list a tableau:
for each border path they count the fillings with a frontier DP over the
same cell rules that `core.tlt_fillings`/`pt_fillings` follow
(`core.tlt_filling_tallies`, `core.pt_filling_count`; a transfer-matrix
count, Stanley, Enumerative Combinatorics 1, section 4.7), and the per-object
sweeps they replaced are kept in the tests as oracles. No survey uses a
closed form, so the checks stay independent of the formulas they test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from operator import add

from .core import (
    NOC_CLASSES,
    SOUTH,
    BorderPath,
    _bits,
    _pt_paths,
    _tlt_paths,
    pt_filling_count,
    tlt_filling_tallies,
)

# Not called here since the surveys count through the DP, but kept
# importable under these names: bench/rep.py wraps them where callers bind
# them, this module included.
from .core import pt_fillings, tlt_fillings  # noqa: F401


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


@lru_cache(maxsize=64)
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


@lru_cache(maxsize=64)
def perm_survey(n: int) -> PermSurvey:
    """One pass over all permutations of [n], tallying every statistic the
    checks consume with integer arithmetic on each permutation."""
    if n < 1:
        raise ValueError("size must be positive")
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
        for v in _bits(mask):
            bi_counts[v + 1] += cnt
    return PermSurvey(
        n,
        count=sum(cycles.values()),
        bi_counts=bi_counts,
        runs1_total=runs1,
        cycle_dist=cycles,
        displacement_total=disp,
        interior_dd_total=interior_dd,
        excedance_total=exc,
        last_is_n=last_is_n,
    )


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


def _add(d: dict, key, x: int) -> None:
    # a zero tally adds no key, as in a sweep that visits object by object
    if x:
        d[key] = d.get(key, 0) + x


@lru_cache(maxsize=64)
def tlt_survey(n: int) -> TltSurvey:
    """All tree-like tableaux of size n, tallied path by path from the
    frontier DP of `tlt_filling_tallies`: the fillings of a path counted by
    first-row and first-column dots, with their undotted corners by class.
    The corner and transfer fields are constants of the path times its
    count; the weights are sums of one tally by row count, first-row and
    first-column dots."""
    if n < 1:
        raise ValueError("size must be positive")
    s = TltSurvey(n)
    # (rows, fr, fc) -> (fillings, their corners, AB, A1, 1B, OneOne)
    fine: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for steps in _tlt_paths(n):
        path = BorderPath(steps)
        k = path.num_rows
        ncor = len(path.corner_cells)
        count = 0
        tallies = tlt_filling_tallies(path.row_lengths, path.num_cols)
        for (fr, fc), (cnt, *classes) in tallies.items():
            count += cnt
            add_on = (cnt, ncor * cnt, *classes)
            old = fine.get((k, fr, fc))
            fine[(k, fr, fc)] = add_on if old is None else tuple(map(add, old, add_on))
        s.count += count
        s.corners_total += ncor * count
        if steps[n - 1] == SOUTH:
            s.transfer_delta_total += count
        for cell in path.corner_cells:
            _add(s.corner_pos, cell.row, count)
    s.class_weight = {c: {} for c in NOC_CLASSES}
    for (k, fr, fc), (cnt, corners, *classes) in fine.items():
        key = (fr - 1, fc - 1)
        noc = sum(classes)
        _add(s.weight, key, cnt)
        _add(s.fc_dist, fc, cnt)
        _add(s.fr_dist, fr, cnt)
        _add(s.rows_weight, (k,) + key, cnt)
        _add(s.occ_weight, key, corners - noc)
        _add(s.noc_weight, key, noc)
        for name, x in zip(NOC_CLASSES, classes):
            _add(s.class_weight[name], key, x)
        s.noc_total += noc
    s.occupied_total = s.corners_total - s.noc_total
    return s


@dataclass
class PtSurvey:
    n: int
    count: int = 0
    corners_total: int = 0
    corner_pos: dict[int, int] = field(default_factory=dict)
    last_south: int = 0


@lru_cache(maxsize=64)
def pt_survey(n: int) -> PtSurvey:
    """All permutation tableaux of length n, counted path by path with
    `pt_filling_count`; every field is a constant of the path times its
    count."""
    if n < 1:
        raise ValueError("length must be positive")
    s = PtSurvey(n)
    for steps in _pt_paths(n):
        path = BorderPath(steps)
        ncor = len(path.corner_cells)
        clabels = [c.row for c in path.corner_cells]
        ends_south = steps[-1] == SOUTH
        cnt = pt_filling_count(path.row_lengths, path.num_cols)
        s.count += cnt
        s.corners_total += ncor * cnt
        for label in clabels:
            s.corner_pos[label] = s.corner_pos.get(label, 0) + cnt
        if ends_south:
            s.last_south += cnt
    return s
