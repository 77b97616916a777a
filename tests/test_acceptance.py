"""Acceptance sweep: one test per headline claim, exact equality throughout.

Run with -v to get one pass/fail line per criterion. The default run keeps
every sweep inside a few minutes; the @slow tests extend the heaviest
criteria by one extra size each (select them with -m slow).
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from oracles import corner_positions, corners_closed_form, displacement_formula, first_row_dist
from treelike import abpoly, bijections, counting
from treelike.bijections import (
    MarkedRun,
    corner_to_run,
    count_colored_words,
    cut_at_corner,
    glue,
    parse_colored_word,
    parse_cycle_form,
    pt_to_tlt,
    run_to_corner,
    run_to_triplet,
    tlt_to_pt,
    triplet_to_run,
)
from treelike.core import enumerate_nat, enumerate_pt, enumerate_tlt
from treelike.counting import (
    formula_bi,
    perm_cycle_dist,
    perm_survey,
    pt_survey,
    runs_of_size_1,
    stirling_row,
    tlt_survey,
)


def test_c01_tlt_corner_total_formula():
    assert counting.tlt_corner_count(1) == 1
    for n in range(1, 9):
        expected = counting.tlt_corner_count(n)
        if n >= 2:
            assert expected * 6 == factorial(n) * (n + 4)
        assert tlt_survey(n).corners_total == expected
    print("criterion 1 ok: corner totals over all tableaux match n!(n+4)/6 for n<=8")


@pytest.mark.slow
def test_c01_tlt_corner_total_formula_n9():
    assert tlt_survey(9).corners_total == counting.tlt_corner_count(9)


def test_c02_pt_corner_total_formula():
    assert counting.pt_corner_count(1) == 0
    for n in range(1, 9):
        expected = counting.pt_corner_count(n)
        if n >= 2:
            assert expected * 6 == factorial(n - 1) * (n * n + 4 * n - 6)
        assert pt_survey(n).corners_total == expected
        assert sum(perm_survey(n).bi_counts.values()) == expected
    print("criterion 2 ok: corner totals over permutation tableaux match for n<=8")


def test_c03_occupied_and_nonoccupied_totals():
    for n in range(1, 9):
        s = tlt_survey(n)
        assert s.occupied_total == factorial(n)
        assert s.noc_total == counting.noc_count(n)
        if n <= 2:
            assert s.noc_total == 0
        else:
            assert s.noc_total * 6 == factorial(n) * (n - 2)
        assert s.occupied_total + s.noc_total == s.corners_total
    print("criterion 3 ok: occupied = n!, non-occupied = n!(n-2)/6 for n<=8")


def test_c04_corner_transfer_and_last_position():
    for n in range(1, 8):
        lost = 0
        for t in enumerate_tlt(n):
            d = bijections.corner_transfer_delta(t)
            assert d in (0, 1)
            assert len(t.path.corner_cells) - len(tlt_to_pt(t).path.corner_cells) == d
            lost += d
        assert lost == factorial(n - 1)
    for n in range(1, 9):
        assert counting.xn_count(n) == factorial(n - 1)
        assert counting.tlt_corner_count(n) == counting.pt_corner_count(n) + counting.xn_count(n)
        assert corner_positions(n, "tlt").get(n, 0) == factorial(n - 1)
        assert corner_positions(n, "pt").get(n, 0) == 0
        assert sum(p[-1] == n for p in permutations(range(1, n + 1))) == factorial(n - 1)
    print("criterion 4 ok: column deletion loses (n-1)! corners, all at the last position")


def test_c05_corner_position_distribution():
    for n in range(2, 9):
        ts = corner_positions(n, "tlt")
        ps = corner_positions(n, "pt")
        bi = perm_survey(n).bi_counts
        for i in range(1, n):
            expected = formula_bi(n, i)
            assert expected == (i - 1 + (n - i) + (n - i) * (i - 1)) * factorial(n - 2)
            assert bi.get(i, 0) == expected
            assert ts.get(i, 0) == expected
            assert ps.get(i, 0) == expected
    print("criterion 5 ok: per-position corner counts match B_i for 1<=i<n<=8")


WORKED_L = "(6)(7 5 2 3)(9 1 8 4)"
WORKED_R = "(4 2 3)(5)(7 1 6)(9 8)"


def test_c06_bijection_round_trips():
    for n in range(1, 8):
        for t in enumerate_tlt(n):
            assert pt_to_tlt(tlt_to_pt(t)) == t
        for p in enumerate_pt(n):
            assert tlt_to_pt(pt_to_tlt(p)) == p
    for n in range(1, 8):
        for t in enumerate_tlt(n):
            for c in t.path.corner_cells:
                assert glue(*cut_at_corner(t, c)) == (t, c)
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            for k in runs_of_size_1(p):
                mr = MarkedRun(p, k)
                assert triplet_to_run(*run_to_triplet(mr)) == mr
    mr = triplet_to_run(
        parse_cycle_form(WORKED_L),
        parse_cycle_form(WORKED_R),
        parse_colored_word("2 3 2* 3* 1 4 0* 1*"),
    )
    assert mr == MarkedRun(
        (15, 17, 11, 16, 7, 5, 2, 3, 9, 1, 8, 4, 14, 12, 13, 19, 18, 10, 6), 18
    )
    mr = triplet_to_run(
        parse_cycle_form(WORKED_L),
        parse_cycle_form(WORKED_R),
        parse_colored_word("1* 4 0* 1 2 2* 3 3*"),
    )
    assert mr == MarkedRun(
        (6, 19, 18, 10, 7, 5, 2, 3, 14, 12, 13, 15, 9, 1, 8, 4, 17, 11, 16), 4
    )
    l_cf, r_cf, m = run_to_triplet(
        MarkedRun((4, 2, 6, 11, 9, 12, 8, 3, 7, 1, 5, 10), 7)
    )
    assert l_cf.text() == "(3)(4 2)(6)(7 1 5)"
    assert r_cf.text() == "(2)(3 1)(4)"
    assert m.text() == "2* 3* 2 3 0* 1 1* 4*"
    print("criterion 6 ok: all three maps invert exactly for n<=7, worked instances byte-exact")


def _assert_corner_run_bijection(n):
    image = set()
    total = 0
    for t in enumerate_tlt(n):
        for c in t.path.corner_cells:
            mr = corner_to_run(t, c)
            assert mr not in image
            image.add(mr)
            assert run_to_corner(mr) == (t, c)
            total += 1
    runs = sum(len(runs_of_size_1(p)) for p in permutations(range(1, n + 1)))
    assert total == runs == counting.runs1_total(n) == counting.tlt_corner_count(n)
    assert len(image) == total


def test_c07_corner_to_marked_run_bijection():
    for n in range(1, 8):
        _assert_corner_run_bijection(n)
    print("criterion 7 ok: corners biject onto marked size-1 runs for n<=7")


@pytest.mark.slow
def test_c07_corner_to_marked_run_bijection_n8():
    _assert_corner_run_bijection(8)


def test_c08_rectangular_trees_match_colored_words():
    for h in range(0, 7):
        for w in range(0, 7 - h):
            trees = sum(1 for _ in enumerate_nat(h, w))
            assert trees == count_colored_words(h, w)
    print("criterion 8 ok: tree counts equal word counts for every shape with h+w<=6")


def test_c09_weight_identities():
    for n in range(1, 9):
        tn = abpoly.t_poly(n)
        assert abpoly.weight_sum(n) == tn
        assert abpoly.occupied_ab(n) == tn
        assert tn.evaluate(1, 1) == factorial(n)
        table = abpoly.euler_table(n)
        assert table == abpoly.euler_oracle(n)
        total = abpoly.BivarPoly.zero()
        for p in table.values():
            total = total + p
        assert total == tn
    for n in range(2, 11):
        assert abpoly.euler_derivative_at_1(n) == abpoly.euler_derivative_closed_form(n)
    for n in range(3, 9):
        classes = abpoly.noc_class_ab(n)
        for cls in ("AB", "A1", "1B"):
            assert classes[cls] == abpoly.class_closed_form(n, cls)
        total = abpoly.BivarPoly.zero()
        for p in classes.values():
            total = total + p
        assert total == abpoly.noc_ab(n)
    print("criterion 9 ok: weighted sums, the two-variable table, and its derivative all match")


def test_c10_nonoccupied_weight_conjecture():
    for n in range(3, 10):
        assert abpoly.noc_ab(n) == abpoly.conjecture_noc_ab(n)
        assert abpoly.corners_ab(n) == corners_closed_form(n)
    print("criterion 10 ok: the non-occupied weight closed form holds exactly for n<=9")


@pytest.mark.slow
def test_c10_nonoccupied_weight_conjecture_n10():
    assert abpoly.noc_ab(10) == abpoly.conjecture_noc_ab(10)


def test_c11_expected_jumps():
    for n in range(2, 9):
        defining = abpoly.expected_jumps_defining(n)
        closed = abpoly.expected_jumps_closed_form(n)
        printed = abpoly.expected_jumps_printed_form(n)
        assert defining.equals(closed)
        assert not printed.equals(closed)
        assert abpoly.RationalExpr(printed.num, printed.den.scale(3)).equals(closed)
        at_ones = Fraction(closed.num.evaluate(1, 1), closed.den.evaluate(1, 1))
        assert at_ones == Fraction(n + 2, 3)
    print("criterion 11 ok: expected jump count matches the corrected closed form, n<=8")


def test_c12_displacement_matches_nonoccupied():
    for n in range(1, 9):
        s = perm_survey(n)
        assert s.displacement_total == displacement_formula(n)
        assert s.displacement_total == counting.noc_count(n + 1)
        assert displacement_formula(n) == factorial(n - 1) * comb(n + 1, 3)
    observed = ", ".join(
        f"n={n}: dd={perm_survey(n).interior_dd_total} exc={perm_survey(n).excedance_total}"
        for n in range(3, 7)
    )
    print("criterion 12 ok: displacement totals match; observed " + observed)


def test_c13_first_column_distribution_is_stirling():
    for n in range(1, 9):
        row = stirling_row(n)
        s = tlt_survey(n)
        assert s.fc_dist == row
        assert first_row_dist(n) == row
        assert perm_cycle_dist(n) == row
        assert s.fc_dist.get(1, 0) == factorial(n - 1)
        assert sum(row.values()) == factorial(n)
    print("criterion 13 ok: first-column and first-row sizes are Stirling distributed, n<=8")
