"""Named checks pairing every closed formula with an exhaustive count.

Each check declares two callables of n: `expected`, the closed form, and
`actual`, the enumeration, survey or recurrence it is compared against. A
check covers a range of sizes and yields one row per size, the two sides
matching exactly as strings. A few checks add a report row carrying
observations that are informational rather than asserted.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import permutations
from math import factorial

from . import abpoly, bijections, counting
from .core import enumerate_pt, enumerate_tlt, first_col_points, first_row_points
from .counting import perm_cycle_dist, perm_survey, pt_survey, tlt_survey


@dataclass(frozen=True)
class Row:
    check: str
    n: int
    expected: str
    actual: str
    match: bool
    elapsed_ms: int

    def json_obj(self) -> dict:
        return {
            "checkName": self.check,
            "n": self.n,
            "expected": self.expected,
            "actual": self.actual,
            "match": self.match,
            "elapsedMs": self.elapsed_ms,
        }


@dataclass(frozen=True)
class CheckSpec:
    """The closed form `expected(n)` set against the sweep `actual(n)`;
    `report(n, expected, actual)`, if given, adds a row (name, expected,
    actual) from their values. All are called when the check runs, so the
    functions they name are looked up then, not when the registry is built."""

    name: str
    min_n: int
    default_max: int
    long_max: int
    expected: Callable[[int], object]
    actual: Callable[[int], object]
    report: Callable[[int, object, object], tuple[str, str, str]] | None = None


def _dist_str(d: dict[int, int]) -> str:
    return ",".join(f"{k}:{v}" for k, v in sorted(d.items()))


def _twice(value) -> str:
    """One closed form set against two sweeps."""
    return f"{value};{value}"


def _bi_expected(n):
    formulas = [counting.formula_bi(n, i) for i in range(1, n)]
    return ",".join(map(str, formulas)) + ";" + str(counting.pt_corner_count(n))


def _bi_actual(n):
    brute = [perm_survey(n).bi_counts[i] for i in range(1, n)]
    return ",".join(map(str, brute)) + ";" + str(sum(brute))


def _corner_transfer_sweep(n):
    mismatches = 0
    for t in enumerate_tlt(n):
        before = len(t.path.corner_cells)
        after = len(bijections.tlt_to_pt(t).path.corner_cells)
        if before - after != bijections.corner_transfer_delta(t):
            mismatches += 1
    return f"{mismatches};{tlt_survey(n).transfer_delta_total}"


def _phi_roundtrip_sweep(n):
    mm_t = sum(
        1
        for t in enumerate_tlt(n)
        if bijections.pt_to_tlt(bijections.tlt_to_pt(t)) != t
    )
    mm_p = sum(
        1
        for p in enumerate_pt(n)
        if bijections.tlt_to_pt(bijections.pt_to_tlt(p)) != p
    )
    return f"{mm_t};{mm_p}"


def _cut_roundtrip_sweep(n):
    bad = 0
    for t in enumerate_tlt(n):
        for corner in t.path.corner_cells:
            t_l, t_r, nat = bijections.cut_at_corner(t, corner)
            if t_l.size + t_r.size + 1 != n:
                bad += 1
                continue
            fr_l = first_row_points(t_l.rows)
            fc_r = first_col_points(t_r.rows)
            if nat.width != fr_l or nat.height != fc_r:
                bad += 1
                continue
            if bijections.glue(t_l, t_r, nat) != (t, corner):
                bad += 1
    return bad


def _all_marked_runs(n):
    for p in permutations(range(1, n + 1)):
        for k in counting.runs_of_size_1(p):
            yield bijections.MarkedRun(p, k)


def _run_roundtrip_sweep(n):
    bad = 0
    for mr in _all_marked_runs(n):
        trip = bijections.run_to_triplet(mr)
        if bijections.triplet_to_run(*trip) != mr:
            bad += 1
    return bad


def _corner_run_sweep(n):
    """The corner-to-run map is a bijection when every round trip returns
    to its (tableau, corner), so the map is one-to-one, every image is a
    marked run of size n, and there are as many corners as marked runs,
    counted by `perm_survey`. The sweep keeps only counts; the sets of
    images and runs are built only to diagnose a failure."""
    corners = 0
    ok = True
    for t in enumerate_tlt(n):
        for corner in t.path.corner_cells:
            corners += 1
            mr = bijections.corner_to_run(t, corner)
            if not (
                isinstance(mr, bijections.MarkedRun)
                and len(mr.perm) == n
                and bijections.run_to_corner(mr) == (t, corner)
            ):
                ok = False
    if ok and corners == perm_survey(n).runs1_total:
        return f"bijection;{corners}"
    return _corner_run_diagnosis(n)


def _corner_run_diagnosis(n):
    seen = {}
    collisions = 0
    inverse_bad = 0
    for t in enumerate_tlt(n):
        for corner in t.path.corner_cells:
            mr = bijections.corner_to_run(t, corner)
            if mr in seen:
                collisions += 1
            seen[mr] = (t, corner)
            if bijections.run_to_corner(mr) != (t, corner):
                inverse_bad += 1
    runs = set(_all_marked_runs(n))
    missing = len(runs - set(seen))
    extra = len(set(seen) - runs)
    return f"collisions={collisions},missing={missing},extra={extra},inverse_mm={inverse_bad};{len(seen)}"


def _displacement_report(n, noc_next, displacement):
    ps = perm_survey(n)
    report = (
        f"interior_dd={ps.interior_dd_total};excedances={ps.excedance_total};"
        f"noc_next={noc_next}"
    )
    return "displacement-report", report, report


def _noc_conjecture_report(n, conjectured, swept):
    diff = abpoly.first_difference(conjectured, swept)
    if diff is None:
        report = f"n={n};status=match"
    else:
        (da, db), ce, ca = diff
        report = (
            f"n={n};status=mismatch;first_diff=a^{da}*b^{db}:conjectured {ce} vs {ca}"
        )
    return "noc-conjecture-report", report, report


def _noc_classes_expected(n):
    parts = [f"{c}={abpoly.class_closed_form(n, c)}" for c in ("AB", "A1", "1B")]
    return ";".join(parts) + ";partition=ok"


def _noc_classes_actual(n):
    sweep = abpoly.noc_class_ab(n)
    parts = [f"{c}={sweep[c]}" for c in ("AB", "A1", "1B")]
    partition = sum(sweep.values(), abpoly.BivarPoly.zero())
    part_ok = partition == abpoly.noc_ab(n)
    return ";".join(parts) + (";partition=ok" if part_ok else ";partition=bad")


def _euler_ab_actual(n):
    table = abpoly.euler_table(n)
    oracle = abpoly.euler_oracle(n)
    zero = abpoly.BivarPoly.zero()
    rowsum = sum(table.values(), zero)
    bad = [k for k in range(1, n + 1) if table.get(k, zero) != oracle.get(k, zero)]
    tail = "recurrence=oracle" if not bad else f"recurrence!=oracle@k={bad[0]}"
    return f"{rowsum};{tail}"


def _jumps_expected(n):
    """expected-jumps compares two rational expressions by cross-multiplying,
    so each side multiplies one form's numerator by the other's denominator."""
    defining = abpoly.expected_jumps_defining(n)
    closed = abpoly.expected_jumps_closed_form(n)
    return f"{closed.num * defining.den};{(n + 2) * defining.den.evaluate(1, 1)}"


def _jumps_actual(n):
    defining = abpoly.expected_jumps_defining(n)
    closed = abpoly.expected_jumps_closed_form(n)
    return f"{defining.num * closed.den};{3 * defining.num.evaluate(1, 1)}"


def _jumps_display(n, expected, actual):
    printed = abpoly.expected_jumps_printed_form(n)
    status = (
        "printed-form-differs"
        if not printed.equals(abpoly.expected_jumps_defining(n))
        else "printed-form-matches-defining-sum"
    )
    return "expected-jumps-display", "printed-form-differs", status


CHECKS: list[CheckSpec] = [
    CheckSpec("corners-tlt", 1, 8, 9, lambda n: counting.tlt_corner_count(n),
              lambda n: tlt_survey(n).corners_total),
    CheckSpec("corners-pt", 1, 8, 9, lambda n: _twice(counting.pt_corner_count(n)),
              lambda n: f"{pt_survey(n).corners_total};"
                        f"{sum(perm_survey(n).bi_counts.values())}"),
    CheckSpec("occupied", 1, 8, 9, lambda n: counting.occupied_count(n),
              lambda n: tlt_survey(n).occupied_total),
    CheckSpec("noc", 1, 8, 9, lambda n: counting.noc_count(n),
              lambda n: tlt_survey(n).noc_total),
    CheckSpec("xn", 1, 8, 9, lambda n: counting.xn_count(n),
              lambda n: pt_survey(n).last_south),
    CheckSpec("bi", 2, 8, 9, _bi_expected, _bi_actual),
    CheckSpec("runs1", 1, 9, 10, lambda n: counting.runs1_total(n),
              lambda n: perm_survey(n).runs1_total),
    CheckSpec("corner-transfer", 1, 8, 9, lambda n: f"0;{factorial(n - 1)}",
              _corner_transfer_sweep),
    CheckSpec("phi-roundtrip", 1, 7, 8, lambda n: "0;0", _phi_roundtrip_sweep),
    CheckSpec("cut-roundtrip", 1, 7, 8, lambda n: 0, _cut_roundtrip_sweep),
    CheckSpec("run-roundtrip", 1, 7, 8, lambda n: 0, _run_roundtrip_sweep),
    CheckSpec("corner-run-bijection", 1, 7, 8,
              lambda n: f"bijection;{counting.tlt_corner_count(n)}", _corner_run_sweep),
    CheckSpec("stirling", 1, 8, 9,
              lambda n: _twice(_dist_str(counting.stirling_row(n))),
              lambda n: f"{_dist_str(tlt_survey(n).fc_dist)};"
                        f"{_dist_str(perm_cycle_dist(n))}"),
    CheckSpec("displacement", 1, 8, 9, lambda n: counting.noc_count(n + 1),
              lambda n: perm_survey(n).displacement_total, _displacement_report),
    CheckSpec("tn-ab", 1, 8, 9, lambda n: abpoly.t_poly(n),
              lambda n: abpoly.weight_sum(n)),
    CheckSpec("occupied-ab", 1, 8, 9, lambda n: abpoly.t_poly(n),
              lambda n: abpoly.occupied_ab(n)),
    CheckSpec("noc-conjecture", 3, 9, 10, lambda n: abpoly.conjecture_noc_ab(n),
              lambda n: abpoly.noc_ab(n), _noc_conjecture_report),
    CheckSpec("noc-classes", 3, 8, 9, _noc_classes_expected, _noc_classes_actual),
    CheckSpec("euler-ab", 1, 8, 9,
              lambda n: f"{abpoly.t_poly(n)};recurrence=oracle", _euler_ab_actual),
    CheckSpec("euler-derivative", 2, 10, 12,
              lambda n: abpoly.euler_derivative_closed_form(n),
              lambda n: abpoly.euler_derivative_at_1(n)),
    CheckSpec("expected-jumps", 2, 8, 9, _jumps_expected, _jumps_actual,
              _jumps_display),
]

CHECK_NAMES = [c.name for c in CHECKS]
_BY_NAME = {c.name: c for c in CHECKS}


def check_range(name: str, max_n: int | None, long: bool) -> range:
    spec = _BY_NAME[name]
    top = max_n if max_n is not None else (spec.long_max if long else spec.default_max)
    return range(spec.min_n, top + 1)


def run_check_at(name: str, n: int) -> list[Row]:
    spec = _BY_NAME[name]
    start = time.monotonic()
    expected, actual = spec.expected(n), spec.actual(n)
    triples = [(name, str(expected), str(actual))]
    if spec.report is not None:
        triples.append(spec.report(n, expected, actual))
    elapsed = int((time.monotonic() - start) * 1000)
    return [
        Row(rname, n, exp, act, exp == act, elapsed) for rname, exp, act in triples
    ]


def _task(args: tuple[int, int]) -> list[Row]:
    idx, n = args
    return run_check_at(CHECKS[idx].name, n)


def run_checks(
    names: list[str],
    max_n: int | None = None,
    long: bool = False,
    jobs: int = 1,
) -> list[Row]:
    """Run the named checks over their size ranges; rows come back in
    registry order, sizes ascending, regardless of worker scheduling.
    With `jobs` > 1 and more than one (check, n) task, the tasks run in a
    process pool of at most one worker per task."""
    tasks = sorted(
        (CHECK_NAMES.index(name), n)
        for name in set(names)
        for n in check_range(name, max_n, long)
    )
    # a pool forks all its workers at the first submit, so it gets no more
    # than there are tasks; the import is here so that a serial run never
    # loads the process-pool stack
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_task, tasks))
    else:
        results = map(_task, tasks)
    return [row for rows in results for row in rows]
