"""Closed-form counts, permutation statistics and exhaustive surveys.

Formulas divide factored binomial products, never floats; every division
checks exact divisibility. A survey tallies every statistic the checks read
for one size, once, so the sweeps are shared across checks. No survey lists
a tableau, and only the cycle count lists the permutations:

- `tlt_survey` and `pt_survey` count the fillings of all border paths of
  one width in one pass, a transfer-matrix count over the lattice of path
  prefixes (`_lattice`; Stanley, Enumerative Combinatorics 1, section 4.7)
  under the cell rules of enumeration (`core._cell_moves`), in integer
  lanes per (first-row, first-column) class for the fillings, corners,
  occupied corners and undotted corners by class; `tlt_survey` walks only
  the shapes no wider than tall and adds their transposes;
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

from .core import _EMPTY, _FILLED, _PT_RULES, _TLT_RULES, NOC_CLASSES, _cell_moves

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


def is_run_of_size_1(p: tuple[int, ...], j: int) -> bool:
    """Whether p[j-1] > p[j] > p[j+1] (j from 1), under sentinels n+1 and 0."""
    n = len(p)
    return (p[j - 2] if j > 1 else n + 1) > p[j - 1] > (p[j] if j < n else 0)


def runs_of_size_1(p: tuple[int, ...]) -> list[int]:
    """The positions j of p that are runs of size 1 (`is_run_of_size_1`)."""
    return [j for j in range(1, len(p) + 1) if is_run_of_size_1(p, j)]


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


def _add(d: dict, key, x: int) -> None:
    # a zero tally adds no key, as in a sweep that visits object by object
    if x:
        d[key] = d.get(key, 0) + x


def _lattice(k: int, w: int, tlt: bool) -> tuple[int, int, int]:
    """(lanes, S, W): the fillings of every border path with k south and w
    west steps that starts with a south step, tallied in lanes of `lanes`
    bits by the path's last step: S (a last row without cells, never
    tree-like) or W. Tree-like fillings when `tlt`, else permutation-tableau
    fillings. A state keeps bits per live column, so the states grow with
    w; `tlt_survey` walks only the shapes with k >= w.

    A transfer-matrix count over the lattice of path prefixes (Stanley,
    Enumerative Combinatorics 1, section 4.7): node (s, t) holds the states
    of all prefixes with s south and t west steps, keyed as in
    `core._cell_moves` (bit 1 + c: live column c holds a filled cell, bit 0:
    the row does). A south step walks the row's w - t cells with its moves
    for the same row (first, middle or last) of a rectangle of one to three
    rows, whose last row folds in column coverage. A west step retires
    the rightmost live column, keeping the states where it holds a filled
    cell. A west step right after a south step makes the row's last cell a
    corner, so that cell also writes its states with the corner tallied.

    Tree-like values hold a block of seven lanes (fillings, corners,
    occupied, AB, A1, 1B, OneOne) per (first-row dots, first-column dots),
    the block of (fr, fc) at index (fr - 1) * k + fc - 1. A corner adds
    every fillings lane to its corners lane and to the occupied lane or its
    class lane (`noc_class`), told by two more key parts: bit w + 2 + c,
    column c >= 1 holds a filled cell below row 0, and bit 2w + 2, the row
    holds one outside column 0 (column 0's corner is a one-cell row, always
    dotted). Permutation tableaux have one block (fillings, corners). A lane
    holds at most the partial fillings of C(k + w - 1, k - 1) prefixes of
    at most k * w cells times their corners, at most min(k, w)."""
    lanes = k * w + (comb(k + w - 1, k - 1) * max(1, min(k, w))).bit_length()
    fill = (1 << lanes) - 1  # the fillings lane of every block
    corner = 1 << lanes
    lower = w + 1  # a column's bit, shifted this far, is its lower bit
    if tlt:
        block = 7 * lanes
        fill = ((1 << block * w * k) - 1) // ((1 << block) - 1) * fill
        occupied = corner | 1 << 2 * lanes
        # what an undotted corner adds, by class at its `NOC_CLASSES`
        # index: (its lower bit) * 2 + (the row's filled cell outside column 0)
        classes = [corner | 1 << (3 + i) * lanes for i in range(4)]
        wide = 1 << 2 * w + 2
    else:
        occupied, classes, wide = corner, [corner] * 4, 0
    flags = wide | 1
    rows: dict = {}

    def row(s: int, length: int) -> list:
        # the cells of row s as (key mask, rule by masked key, filled-cell
        # key bits, filled-cell value shift)
        first, last = s == 0, s == k - 1
        moves = rows.get((first, last, length))
        if moves is None:
            moves = rows[(first, last, length)] = []
            shape = (length,) * (3 - first - last)  # a first, middle or last row, as row s
            cells = _cell_moves(shape, _TLT_RULES if tlt else _PT_RULES)[0 if first else length :]
            for c, (_, bit, may, _) in enumerate(cells[:length]):
                filled, shift = bit | 1, 0
                if tlt:  # outside column 0: the row bit, and in a middle row the lower bit
                    filled |= (wide | (0 if first or last else bit << lower)) if c else 0
                    shift = (k * block if c else 0) if first else (0 if c else block)
                rule = {0: may[0], bit: may[1], 1: may[2], bit | 1: may[3]}
                moves.append((bit | 1, rule, filled, shift))
        return moves

    # the states at nodes (s, 0..w) whose prefix ends with a south step (a
    # row that a south step must follow) or with a west step
    south, west = [None] * (w + 1), [None] * (w + 1)
    south[0] = {0: 1}
    ends_s = 0
    for s in range(k + 1):
        for t in range(1, w):  # a west step after a west step
            src = west[t]
            if src:
                bit = 2 << w - 1 - t
                keep = ~(bit | bit << lower)
                dst = west[t + 1]
                if dst is None:
                    dst = west[t + 1] = {}
                get = dst.get
                for key, v in src.items():
                    if key & bit:
                        to = key & keep
                        dst[to] = get(to, 0) + v
        # every column is retired at t = w, so the states there have the key 0
        ends = [d[0] for d in (south[w], west[w]) if d]
        if s == k:
            break
        ends_s += sum(ends)
        south_on, west_on = [None] * (w + 1), [None] * (w + 1)
        for t in range(w):
            ins = tuple(filter(None, (south[t], west[t])))
            if not ins:
                continue
            moves = row(s, w - t)
            for mask, rule, filled, shift in moves[:-1]:
                nxt: dict[int, int] = {}
                get = nxt.get
                for src in ins:
                    for key, v in src.items():
                        ok = rule[key & mask]
                        if ok & _EMPTY:
                            nxt[key] = get(key, 0) + v
                        if ok & _FILLED:
                            to = key | filled
                            nxt[to] = get(to, 0) + (v << shift)
                ins = (nxt,)
            # the last cell: on to the next row, or a corner then a west step
            mask, rule, filled, shift = moves[-1]
            bit = mask ^ 1
            lower_bit = bit << lower
            retire = ~(flags | bit | lower_bit)
            go_on = s + 1 < k
            on, cornered = {}, {}
            on_get, cornered_get = on.get, cornered.get
            for src in ins:
                for key, v in src.items():
                    ok = rule[key & mask]
                    if ok & _EMPTY:
                        if go_on:
                            to = key & ~flags
                            on[to] = on_get(to, 0) + v
                        if key & bit:
                            to = key & retire
                            i = (2 if key & lower_bit else 0) | (1 if key & wide else 0)
                            cornered[to] = cornered_get(to, 0) + v + (v & fill) * classes[i]
                    if ok & _FILLED:
                        v <<= shift
                        if go_on:
                            to = (key | filled) & ~flags
                            on[to] = on_get(to, 0) + v
                        to = key & retire
                        cornered[to] = cornered_get(to, 0) + v + (v & fill) * occupied
            south_on[t], west_on[t + 1] = on, cornered
        south, west = south_on, west_on
    return lanes, ends_s, sum(ends)


@lru_cache(maxsize=64)
def tlt_survey(n: int) -> TltSurvey:
    """All tree-like tableaux of size n, tallied from `_lattice` for each
    shape of w columns and k = n + 1 - w >= w rows. Tree-like tableaux are
    closed under transposition ([ABN]; `core.transpose`), so a tally with
    k > w rows is added again for the transposed shape, w rows of k
    columns, with the first-row and first-column dots swapped and the
    classes A1 and 1B too (the column and row tests of `core.noc_class`
    swap)."""
    if n < 1:
        raise ValueError("size must be positive")
    s = TltSurvey()
    s.class_weight = {c: {} for c in NOC_CLASSES}
    for w in range(1, (n + 1) // 2 + 1):
        k = n + 1 - w
        lanes, _, total = _lattice(k, w, True)
        lane = (1 << lanes) - 1
        for top in range(w):
            for left in range(k):
                count, corners, occ = (total >> i * lanes & lane for i in range(3))
                shapes = [(k, (top, left), NOC_CLASSES)]
                if k > w:
                    shapes.append((w, (left, top), ("AB", "1B", "A1", "OneOne")))
                for rows, key, classes in shapes:
                    s.count += count
                    s.corners_total += corners
                    s.occupied_total += occ
                    _add(s.weight, key, count)
                    _add(s.fc_dist, key[1] + 1, count)
                    _add(s.rows_weight, (rows,) + key, count)
                    _add(s.occ_weight, key, occ)
                    _add(s.noc_weight, key, corners - occ)
                    for i, name in enumerate(classes, 3):
                        _add(s.class_weight[name], key, total >> i * lanes & lane)
                total >>= 7 * lanes
    s.noc_total = s.corners_total - s.occupied_total
    return s


@dataclass
class PtSurvey:
    count: int = 0
    corners_total: int = 0
    last_south: int = 0


@lru_cache(maxsize=64)
def pt_survey(n: int) -> PtSurvey:
    """All permutation tableaux of length n, tallied width by width from
    `_lattice`: a tableau of width w has n - w rows, and its path may end
    with either step."""
    if n < 1:
        raise ValueError("length must be positive")
    s = PtSurvey()
    for w in range(n):
        lanes, south, west = _lattice(n - w, w, False)
        lane = (1 << lanes) - 1
        total = south + west
        s.count += total & lane
        s.corners_total += total >> lanes
        s.last_south += south & lane
    return s
