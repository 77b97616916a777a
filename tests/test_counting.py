"""Closed formulas against brute-force enumeration."""

import math
import os
import subprocess
import sys

import pytest

from oracles import (
    ascent_values,
    corner_positions,
    cycle_count,
    displacement,
    displacement_formula,
    first_row_dist,
)
from treelike.counting import (
    exact_div,
    formula_bi,
    noc_count,
    occupied_count,
    perm_cycle_dist,
    perm_survey,
    pt_corner_count,
    pt_survey,
    runs1_total,
    runs_of_size_1,
    stirling_row,
    tlt_corner_count,
    tlt_survey,
    xn_count,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_exact_div_guards():
    assert exact_div(12, 4) == 3
    with pytest.raises(ValueError):
        exact_div(13, 4)


def test_exact_div_guard_survives_optimize_flag():
    # python -O strips assert statements; the guard must not be one
    code = (
        "from treelike.counting import exact_div\n"
        "try:\n    exact_div(13, 4)\nexcept ValueError:\n    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


class TestFormulas:
    def test_corner_fixtures(self):
        assert [tlt_corner_count(n) for n in (1, 2, 3, 4)] == [1, 2, 7, 32]
        assert pt_corner_count(1) == 0
        assert pt_corner_count(2) == 1
        assert pt_corner_count(3) == 5

    def test_noc_small(self):
        assert noc_count(1) == 0
        assert noc_count(2) == 0
        assert noc_count(3) == 1

    def test_corner_split(self):
        for n in range(1, 13):
            assert tlt_corner_count(n) == occupied_count(n) + noc_count(n)

    def test_tlt_equals_pt_plus_xn(self):
        for n in range(2, 13):
            assert tlt_corner_count(n) == pt_corner_count(n) + xn_count(n)

    def test_runs1_equals_tlt_corners(self):
        for n in range(2, 13):
            assert runs1_total(n) == tlt_corner_count(n)
        assert runs1_total(1) == 1

    def test_bi_sums_to_pt_corners(self):
        for n in range(2, 13):
            total = sum(formula_bi(n, i) for i in range(1, n))
            assert total == pt_corner_count(n)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tlt_corner_count(0)
        with pytest.raises(ValueError):
            formula_bi(4, 0)
        with pytest.raises(ValueError):
            formula_bi(4, 4)


class TestValueAscentsDescents:
    def test_convention_on_213(self):
        assert ascent_values((2, 1, 3)) == {1, 3}  # so 2 is the one descent

    def test_last_letter_is_ascent(self):
        # the virtual n+1 after the word makes the final letter an ascent
        for p in [(3, 2, 1), (1, 2, 3), (2, 3, 1)]:
            assert p[-1] in ascent_values(p)

    def test_value_n_ascent_iff_last(self):
        from itertools import permutations

        for n in range(2, 7):
            cnt = sum(
                1 for p in permutations(range(1, n + 1)) if n in ascent_values(p)
            )
            assert cnt == math.factorial(n - 1)


class TestRuns:
    def test_decreasing_word(self):
        assert runs_of_size_1((3, 2, 1)) == [1, 2, 3]

    def test_total_size_three(self):
        assert perm_survey(3).runs1_total == 7

    @pytest.mark.parametrize("n", range(1, 8))
    def test_formula_matches_brute(self, n):
        assert perm_survey(n).runs1_total == runs1_total(n)


class TestCountBi:
    def test_size_three_values(self):
        assert perm_survey(3).bi_counts[1] == 2  # 213 and 321
        assert perm_survey(3).bi_counts[2] == 3  # 132, 231, 312

    @pytest.mark.parametrize("n", range(2, 8))
    def test_formula(self, n):
        for i in range(1, n):
            assert perm_survey(n).bi_counts[i] == formula_bi(n, i)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_tlt_corner_positions(self, n):
        # corners at (i, i+1) over the whole catalogue: the first n-1
        # positions follow the same counts, the last one is (n-1)!
        pos = corner_positions(n, "tlt")
        for i in range(1, n):
            assert pos.get(i, 0) == formula_bi(n, i), i
        assert pos.get(n, 0) == math.factorial(n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pt_corner_positions(self, n):
        pos = corner_positions(n, "pt")
        for i in range(1, n):
            assert pos.get(i, 0) == formula_bi(n, i), i
        assert pos.get(n, 0) == 0


class TestDisplacement:
    def test_size_three(self):
        assert perm_survey(3).displacement_total == 8
        assert displacement((3, 1, 2)) == 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_noc_of_next_size(self, n):
        assert perm_survey(n).displacement_total == noc_count(n + 1)

    def test_formula_identity(self):
        for n in range(1, 10):
            assert displacement_formula(n) == noc_count(n + 1)

    def test_interior_double_descents_differ(self):
        # the interior double-descent count lives on a different scale:
        # matching displacement of [n] needs permutations of [n+1]
        assert perm_survey(2).interior_dd_total == 0
        assert perm_survey(3).interior_dd_total == 1
        for m in range(2, 7):
            assert perm_survey(m).interior_dd_total == exact_div(
                math.factorial(m) * (m - 2), 6
            )
        assert perm_survey(4).interior_dd_total == perm_survey(3).displacement_total


class TestStirling:
    def test_row_three(self):
        assert stirling_row(3) == {1: 2, 2: 3, 3: 1}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recurrence_vs_brute_cycles(self, n):
        assert perm_cycle_dist(n) == stirling_row(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_column_distribution(self, n):
        assert tlt_survey(n).fc_dist == stirling_row(n)
        # single first-column dot: (n-1)! tableaux
        assert tlt_survey(n).fc_dist[1] == math.factorial(n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_row_matches_by_symmetry(self, n):
        assert first_row_dist(n) == stirling_row(n)

    def test_row_sums(self):
        for n in range(1, 9):
            assert sum(stirling_row(n).values()) == math.factorial(n)


class TestCycleCount:
    def test_examples(self):
        assert cycle_count((1, 2, 3)) == 3
        assert cycle_count((2, 3, 1)) == 1
        assert cycle_count((2, 1, 4, 3)) == 2


class TestSurveys:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_tlt_survey_totals(self, n):
        s = tlt_survey(n)
        assert s.count == math.factorial(n)
        assert s.corners_total == tlt_corner_count(n)
        assert s.occupied_total == occupied_count(n)
        assert s.noc_total == noc_count(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pt_survey_totals(self, n):
        s = pt_survey(n)
        assert s.count == math.factorial(n)
        assert s.corners_total == pt_corner_count(n)
        assert s.last_south == xn_count(n)

    @pytest.mark.parametrize("survey", [tlt_survey, pt_survey], ids=["tlt", "pt"])
    def test_size_zero_is_value_error(self, survey):
        for n in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                survey(n)

    def test_xn_size_three(self):
        assert pt_survey(3).last_south == 2
        assert pt_survey(1).last_south == 1
