"""Named checks pairing every closed formula with an exhaustive count.

Each check covers a range of sizes and yields one row per size: the
formula side under `expected`, the enumeration, survey or recurrence side
under `actual`, matching exactly as strings. A few extra report rows carry
observations that are informational rather than asserted; those render
the same text on both sides.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from math import factorial

from . import abpoly, bijections, counting
from .core import enumerate_pt, enumerate_tlt, first_col_points, first_row_points
from .counting import perm_survey, pt_survey, tlt_survey


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
    name: str
    min_n: int
    default_max: int
    long_max: int
    fn: object  # n -> list[(name, expected, actual)]


def _dist_str(d: dict[int, int]) -> str:
    return ",".join(f"{k}:{v}" for k, v in sorted(d.items()))


def _one_row(name, min_n, default_max, long_max, expected, actual) -> CheckSpec:
    """A check whose one row compares a closed form with one sweep value.
    Both sides are callables of n, so the functions they name are looked up
    when the check runs, not when the registry is built."""
    def fn(n):
        return [(name, str(expected(n)), str(actual(n)))]

    return CheckSpec(name, min_n, default_max, long_max, fn)


def _check_corners_pt(n):
    formula = counting.pt_corner_count(n)
    pairs = sum(perm_survey(n).bi_counts.values())
    return [
        (
            "corners-pt",
            f"{formula};{formula}",
            f"{pt_survey(n).corners_total};{pairs}",
        )
    ]


def _check_bi(n):
    formulas = [counting.formula_bi(n, i) for i in range(1, n)]
    brute = [perm_survey(n).bi_counts[i] for i in range(1, n)]
    exp = ",".join(map(str, formulas)) + ";" + str(counting.pt_corner_count(n))
    act = ",".join(map(str, brute)) + ";" + str(sum(brute))
    return [("bi", exp, act)]


def _check_corner_transfer(n):
    mismatches = 0
    for t in enumerate_tlt(n):
        before = len(t.path.corner_cells)
        after = len(bijections.tlt_to_pt(t).path.corner_cells)
        if before - after != bijections.corner_transfer_delta(t):
            mismatches += 1
    return [
        (
            "corner-transfer",
            f"0;{factorial(n - 1)}",
            f"{mismatches};{tlt_survey(n).transfer_delta_total}",
        )
    ]


def _check_phi_roundtrip(n):
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
    return [("phi-roundtrip", "0;0", f"{mm_t};{mm_p}")]


def _check_cut_roundtrip(n):
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
    return [("cut-roundtrip", "0", str(bad))]


def _all_marked_runs(n):
    for p in permutations(range(1, n + 1)):
        for k in counting.runs_of_size_1(p):
            yield bijections.MarkedRun(p, k)


def _check_run_roundtrip(n):
    bad = 0
    for mr in _all_marked_runs(n):
        trip = bijections.run_to_triplet(mr)
        if bijections.triplet_to_run(*trip) != mr:
            bad += 1
    return [("run-roundtrip", "0", str(bad))]


def _check_corner_run_bijection(n):
    total = counting.tlt_corner_count(n)
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
    ok = collisions == 0 and inverse_bad == 0 and missing == 0 and extra == 0
    act = (
        f"bijection;{len(seen)}"
        if ok
        else f"collisions={collisions},missing={missing},extra={extra},inverse_mm={inverse_bad};{len(seen)}"
    )
    return [("corner-run-bijection", f"bijection;{total}", act)]


def _check_stirling(n):
    s = _dist_str(counting.stirling_row(n))
    act = f"{_dist_str(tlt_survey(n).fc_dist)};{_dist_str(perm_survey(n).cycle_dist)}"
    return [("stirling", f"{s};{s}", act)]


def _check_displacement(n):
    ps = perm_survey(n)
    rows = [
        ("displacement", str(counting.noc_count(n + 1)), str(ps.displacement_total))
    ]
    report = (
        f"interior_dd={ps.interior_dd_total};excedances={ps.excedance_total};"
        f"noc_next={counting.noc_count(n + 1)}"
    )
    rows.append(("displacement-report", report, report))
    return rows


def _check_noc_conjecture(n):
    exp = abpoly.conjecture_noc_ab(n)
    act = abpoly.noc_ab(n)
    rows = [("noc-conjecture", str(exp), str(act))]
    if exp == act:
        report = f"n={n};status=match"
    else:
        (da, db), ce, ca = abpoly.first_difference(exp, act)
        report = (
            f"n={n};status=mismatch;first_diff=a^{da}*b^{db}:conjectured {ce} vs {ca}"
        )
    rows.append(("noc-conjecture-report", report, report))
    return rows


def _check_noc_classes(n):
    sweep = abpoly.noc_class_ab(n)
    exp_parts = [f"{c}={abpoly.class_closed_form(n, c)}" for c in ("AB", "A1", "1B")]
    act_parts = [f"{c}={sweep[c]}" for c in ("AB", "A1", "1B")]
    partition = sum(sweep.values(), abpoly.BivarPoly.zero())
    part_ok = partition == abpoly.noc_ab(n)
    exp = ";".join(exp_parts) + ";partition=ok"
    act = ";".join(act_parts) + (";partition=ok" if part_ok else ";partition=bad")
    return [("noc-classes", exp, act)]


def _check_euler_ab(n):
    table = abpoly.euler_table(n)
    rowsum = abpoly.BivarPoly.zero()
    for p in table.values():
        rowsum = rowsum + p
    oracle = abpoly.euler_oracle(n)
    bad = [
        k
        for k in range(1, n + 1)
        if table.get(k, abpoly.BivarPoly.zero())
        != oracle.get(k, abpoly.BivarPoly.zero())
    ]
    tail = "recurrence=oracle" if not bad else f"recurrence!=oracle@k={bad[0]}"
    return [
        ("euler-ab", f"{abpoly.t_poly(n)};recurrence=oracle", f"{rowsum};{tail}")
    ]


def _check_expected_jumps(n):
    defining = abpoly.expected_jumps_defining(n)
    closed = abpoly.expected_jumps_closed_form(n)
    lhs = closed.num * defining.den
    rhs = defining.num * closed.den
    num11 = defining.num.evaluate(1, 1)
    den11 = defining.den.evaluate(1, 1)
    rows = [
        (
            "expected-jumps",
            f"{lhs};{(n + 2) * den11}",
            f"{rhs};{3 * num11}",
        )
    ]
    printed = abpoly.expected_jumps_printed_form(n)
    status = (
        "printed-form-differs"
        if not printed.equals(defining)
        else "printed-form-matches-defining-sum"
    )
    rows.append(("expected-jumps-display", "printed-form-differs", status))
    return rows


CHECKS: list[CheckSpec] = [
    _one_row("corners-tlt", 1, 8, 9, lambda n: counting.tlt_corner_count(n),
             lambda n: tlt_survey(n).corners_total),
    CheckSpec("corners-pt", 1, 8, 9, _check_corners_pt),
    _one_row("occupied", 1, 8, 9, lambda n: counting.occupied_count(n),
             lambda n: tlt_survey(n).occupied_total),
    _one_row("noc", 1, 8, 9, lambda n: counting.noc_count(n),
             lambda n: tlt_survey(n).noc_total),
    _one_row("xn", 1, 8, 9, lambda n: counting.xn_count(n),
             lambda n: pt_survey(n).last_south),
    CheckSpec("bi", 2, 8, 9, _check_bi),
    _one_row("runs1", 1, 9, 10, lambda n: counting.runs1_total(n),
             lambda n: perm_survey(n).runs1_total),
    CheckSpec("corner-transfer", 1, 8, 9, _check_corner_transfer),
    CheckSpec("phi-roundtrip", 1, 7, 8, _check_phi_roundtrip),
    CheckSpec("cut-roundtrip", 1, 7, 8, _check_cut_roundtrip),
    CheckSpec("run-roundtrip", 1, 7, 8, _check_run_roundtrip),
    CheckSpec("corner-run-bijection", 1, 7, 8, _check_corner_run_bijection),
    CheckSpec("stirling", 1, 8, 9, _check_stirling),
    CheckSpec("displacement", 1, 8, 9, _check_displacement),
    _one_row("tn-ab", 1, 8, 9, lambda n: abpoly.t_poly(n),
             lambda n: abpoly.weight_sum(n)),
    _one_row("occupied-ab", 1, 8, 9, lambda n: abpoly.t_poly(n),
             lambda n: abpoly.occupied_ab(n)),
    CheckSpec("noc-conjecture", 3, 9, 10, _check_noc_conjecture),
    CheckSpec("noc-classes", 3, 8, 9, _check_noc_classes),
    CheckSpec("euler-ab", 1, 8, 9, _check_euler_ab),
    _one_row("euler-derivative", 2, 10, 12,
             lambda n: abpoly.euler_derivative_closed_form(n),
             lambda n: abpoly.euler_derivative_at_1(n)),
    CheckSpec("expected-jumps", 2, 8, 9, _check_expected_jumps),
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
    triples = spec.fn(n)
    elapsed = int((time.monotonic() - start) * 1000)
    return [
        Row(rname, n, exp, act, exp == act, elapsed) for rname, exp, act in triples
    ]


def _task(args) -> tuple[int, int, list[Row]]:
    idx, n = args
    return idx, n, run_check_at(CHECKS[idx].name, n)


def run_checks(
    names: list[str],
    max_n: int | None = None,
    long: bool = False,
    jobs: int = 1,
) -> list[Row]:
    """Run the named checks over their size ranges; rows come back in
    registry order, sizes ascending, regardless of worker scheduling."""
    tasks = []
    for name in names:
        idx = CHECK_NAMES.index(name)
        for n in check_range(name, max_n, long):
            tasks.append((idx, n))
    results: dict[tuple[int, int], list[Row]] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for idx, n, rows in pool.map(_task, tasks):
                results[(idx, n)] = rows
    else:
        for idx, n in tasks:
            results[(idx, n)] = run_check_at(CHECKS[idx].name, n)
    out: list[Row] = []
    for idx, n in sorted(results):
        out.extend(results[(idx, n)])
    return out
