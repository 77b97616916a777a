"""Closed-form counts, permutation statistics and exhaustive surveys.

Formulas divide factored binomial products, never floats; every division
checks exact divisibility. A survey tallies every statistic the checks read
for one size, once, so the sweeps are shared across checks. No survey lists
a tableau, and only the cycle count lists the permutations:

- `tlt_survey` and `pt_survey` count the fillings of each border path with
  a frontier DP over the same cell rules that `core.tlt_fillings`/
  `pt_fillings` follow (`core.tlt_filling_tallies`, whose values carry
  every (first-row, first-column) class in integer lanes, and
  `core.pt_filling_count`; a transfer-matrix count, Stanley, Enumerative
  Combinatorics 1, section 4.7);
- `perm_survey` sums the local permutation statistics with a positional DP
  over (values used, last value, last step descended), and `bi_counts` with
  an insertion DP that inserts 1, ..., n in turn;
- `perm_cycle_dist` reads every permutation, since every DP for the cycle
  count is the Stirling recurrence that the `stirling` check tests.

The per-object sweeps and the earlier DPs they replaced are kept in the
tests as oracles. No survey uses a closed form, so the checks stay
independent of the formulas they test.
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


@dataclass
class PermSurvey:
    count: int = 0
    bi_counts: dict[int, int] = field(default_factory=dict)
    runs1_total: int = 0
    displacement_total: int = 0
    interior_dd_total: int = 0
    excedance_total: int = 0


@lru_cache(maxsize=64)
def perm_survey(n: int) -> PermSurvey:
    """The local statistics of all permutations of [n], summed without
    listing them, and `bi_counts` from `perm_bi_counts`.

    A positional DP: the permutation is written left to right, and a state
    is (the values used, the last value, whether the last letter descended
    from a letter). Each statistic is a sum over the letters of something
    the letter, its position and its neighbours decide: a letter is a run
    of size 1 when it descends from its left neighbour (or is first, after
    the sentinel n + 1) and into its right one (or is last, before the
    sentinel 0); an interior double descent when it does both between two
    letters; and it adds its excess over its position to the displacement
    and one to the excedances when it exceeds its position. A state's value
    is one int in five lanes (words, runs of size 1, interior double
    descents, displacement, excedances): how many words reach it, and their
    totals so far. Writing the next letter adds, to each total, the words
    times that letter's contribution."""
    if n < 1:
        raise ValueError("size must be positive")
    # every total is below n^(n+2): n! words, each adding less than n^2
    lanes = (n + 2) * n.bit_length()
    lane = (1 << lanes) - 1
    runs_1 = 1 << lanes
    # a descent after a descent: a run of size 1 and an interior double descent
    double = runs_1 | 1 << 2 * lanes
    full = (1 << n) - 1
    # up[mask * n + v]: the words on the values of `mask` that end at v
    # after an ascent or as the first letter; down: after a descent.
    # Letters are 0-based here: value v + 1 of the permutation is v.
    up = [0] * ((full + 1) * n)
    down = [0] * ((full + 1) * n)
    # what a letter w at position j (0-based) adds to displacement and
    # excedances, at j * n + w
    exceeds = 1 << 4 * lanes
    placed = [(w - j) << 3 * lanes | exceeds if w > j else 0 for j in range(n) for w in range(n)]
    for v in range(n):
        up[(1 << v) * n + v] = 1 + placed[v]
    for mask in range(1, full):
        here = mask.bit_count() * n
        row = mask * n
        # the first letter is a run of size 1 when the second is below it
        r1 = runs_1 if not mask & mask - 1 else 0
        # a state (mask | w, w) has one source mask: it sums the states of
        # `mask` that end below w (an ascent into w) or above it (a descent)
        words = count = 0
        for w in range(n):
            if mask >> w & 1:
                x = up[row + w] + down[row + w]
                words += x
                count += x & lane
            else:
                up[(mask | 1 << w) * n + w] = words + count * placed[here + w]
        words = count = runs = 0
        for w in range(n - 1, -1, -1):
            if mask >> w & 1:
                a, d = up[row + w], down[row + w]
                words += a + d
                count += (a + d) & lane
                runs += (a & lane) * r1 + (d & lane) * double
            else:
                down[(mask | 1 << w) * n + w] = words + count * placed[here + w] + runs
    last = full * n
    ends_up, ends_down = sum(up[last:]), sum(down[last:])
    # the last letter descends into the sentinel 0; a single letter also
    # comes after the sentinel n + 1
    total = ends_up + ends_down + ((ends_down + (ends_up if n == 1 else 0)) & lane) * runs_1
    return PermSurvey(
        count=total & lane,
        bi_counts=perm_bi_counts(n),
        runs1_total=total >> lanes & lane,
        interior_dd_total=total >> 2 * lanes & lane,
        displacement_total=total >> 3 * lanes & lane,
        excedance_total=total >> 4 * lanes,
    )


def perm_bi_counts(n: int) -> dict[int, int]:
    """{i: the permutations of [n] where i is an ascent value and i + 1 a
    descent value}, for 1 <= i < n, without listing them.

    An insertion DP: a permutation of [n] is built by inserting 1, ..., n
    in turn, each into one of the m + 1 slots of the word of m letters so
    far. The new value is the largest, so it is an ascent value in the end
    slot and a descent value in any other, and the letter left of its slot
    becomes an ascent value; no other letter changes, and an ascent value
    stays one. For each i, the states that can still end with i an ascent
    and i + 1 a descent value are:

    - once i is in: i last (so an ascent), or i a descent value;
    - once i + 1 is in, never last again: i an ascent and i + 1 a descent
      (`ad`), or both descents (`dd`).

    A later value keeps `ad` in the end slot, in the slot right of i and in
    the m - 2 others, and makes it both ascents right of i + 1; it keeps
    `dd` in the end slot and the m - 2 others, and turns it into `ad` right
    of i."""
    out = {}
    words = 1  # the words of i - 1 letters
    for i in range(1, n):
        # insert i into i - 1 letters: last in one slot, a descent value in
        # the i - 1 others; then i + 1 into i letters: i + 1 a descent
        # value, and i an ascent value if last or if i + 1 lands right of it
        ad = words * i + words * (i - 1)
        dd = words * (i - 1) * (i - 1)
        for m in range(i + 1, n):  # insert m + 1 into m letters
            ad, dd = ad * m + dd, dd * (m - 1)
        out[i] = ad
        words *= i
    return out


def perm_cycle_dist(n: int) -> dict[int, int]:
    """{k: the permutations of [n] with k cycles}, one permutation at a
    time. No DP is used here: every DP for the cycle count found is the
    Stirling recurrence, which the `stirling` check sets this against."""
    if n < 1:
        raise ValueError("size must be positive")
    dist: dict[int, int] = {}
    letters = range(n)
    for p in permutations(letters):
        k = 0
        for i in letters:
            # i opens a cycle exactly when it is the least letter on it
            j = p[i]
            while j > i:
                j = p[j]
            k += j == i
        dist[k] = dist.get(k, 0) + 1
    return dist


# ---------------------------------------------------------------------------
# tableau surveys


@dataclass
class TltSurvey:
    count: int = 0
    corners_total: int = 0
    occupied_total: int = 0
    noc_total: int = 0
    weight: dict[tuple[int, int], int] = field(default_factory=dict)
    occ_weight: dict[tuple[int, int], int] = field(default_factory=dict)
    noc_weight: dict[tuple[int, int], int] = field(default_factory=dict)
    class_weight: dict[str, dict[tuple[int, int], int]] = field(default_factory=dict)
    rows_weight: dict[tuple[int, int, int], int] = field(default_factory=dict)
    fc_dist: dict[int, int] = field(default_factory=dict)
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
    s = TltSurvey()
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
    s.class_weight = {c: {} for c in NOC_CLASSES}
    for (k, fr, fc), (cnt, corners, *classes) in fine.items():
        key = (fr - 1, fc - 1)
        noc = sum(classes)
        _add(s.weight, key, cnt)
        _add(s.fc_dist, fc, cnt)
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
    count: int = 0
    corners_total: int = 0
    last_south: int = 0


@lru_cache(maxsize=64)
def pt_survey(n: int) -> PtSurvey:
    """All permutation tableaux of length n, counted path by path with
    `pt_filling_count`; every field is a constant of the path times its
    count."""
    if n < 1:
        raise ValueError("length must be positive")
    s = PtSurvey()
    for steps in _pt_paths(n):
        path = BorderPath(steps)
        ncor = len(path.corner_cells)
        ends_south = steps[-1] == SOUTH
        cnt = pt_filling_count(path.row_lengths, path.num_cols)
        s.count += cnt
        s.corners_total += ncor * cnt
        if ends_south:
            s.last_south += cnt
    return s
