"""Weighted identities in two variables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import corners_closed_form
from treelike.abpoly import (
    A,
    B,
    ONE,
    BivarPoly,
    RationalExpr,
    class_closed_form,
    conjecture_noc_ab,
    corners_ab,
    euler_derivative_at_1,
    euler_derivative_closed_form,
    euler_oracle,
    euler_table,
    expected_jumps_closed_form,
    expected_jumps_defining,
    expected_jumps_printed_form,
    first_difference,
    noc_ab,
    noc_class_ab,
    occupied_ab,
    t_poly,
    weight_sum,
)

polys = st.builds(
    BivarPoly.from_dict,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=5,
    ),
)


class TestBivarPoly:
    def test_zero_coefficients_pruned(self):
        p = BivarPoly.from_dict({(1, 0): 1, (0, 1): 0})
        assert p == A
        assert (A - A).is_zero()

    def test_str_canonical(self):
        p = A * A + (A * B).scale(2) + B * B + A + B
        assert str(p) == "b + b^2 + a + 2*a*b + a^2"
        assert str(BivarPoly.zero()) == "0"
        assert str(A - B.scale(3)) == "-3*b + a"
        assert str(ONE.scale(-1)) == "-1"

    def test_evaluate(self):
        p = A * A + B.scale(3)
        assert p.evaluate(2, 5) == 19

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p + BivarPoly.zero() == p
        assert p * ONE == p

    def test_first_difference(self):
        p = A + B
        q = A + B.scale(2)
        assert first_difference(p, q) == ((0, 1), 1, 2)
        assert first_difference(p, p) is None


class TestRationalExpr:
    def test_cross_equality(self):
        half = RationalExpr(ONE, ONE.scale(2))
        two_quarters = RationalExpr(ONE.scale(2), ONE.scale(4))
        assert half.equals(two_quarters)
        assert not half.equals(RationalExpr(ONE, ONE.scale(3)))

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            RationalExpr(ONE, BivarPoly.zero())


class TestTPoly:
    def test_first_values(self):
        assert t_poly(0) == ONE
        assert t_poly(1) == ONE
        assert t_poly(2) == A + B
        assert str(t_poly(3)) == "b + b^2 + a + 2*a*b + a^2"

    def test_specializes_to_factorial(self):
        import math

        for n in range(1, 9):
            assert t_poly(n).evaluate(1, 1) == math.factorial(n)


class TestWeightedSums:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_weight_sum_is_t_poly(self, n):
        assert weight_sum(n) == t_poly(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_occupied_is_t_poly(self, n):
        assert occupied_ab(n) == t_poly(n)

    def test_noc_size_three_is_ab(self):
        assert str(noc_ab(3)) == "a*b"

    @pytest.mark.parametrize("n", range(3, 7))
    def test_conjecture_small_sizes(self, n):
        assert noc_ab(n) == conjecture_noc_ab(n)

    def test_conjecture_size_four_form(self):
        # (2ab + a + b)(a + b) expanded
        want = (
            (A * B).scale(2) * (A + B) + (A + B) * (A + B)
        )
        assert conjecture_noc_ab(4) == want

    @pytest.mark.parametrize("n", range(3, 7))
    def test_class_sums(self, n):
        sweep = noc_class_ab(n)
        for cls in ("AB", "A1", "1B"):
            assert sweep[cls] == class_closed_form(n, cls)
        total = sweep["AB"] + sweep["A1"] + sweep["1B"] + sweep["OneOne"]
        assert total == noc_ab(n)

    def test_class_symmetry(self):
        # swapping the variables swaps the two one-sided classes
        for n in range(3, 6):
            sweep = noc_class_ab(n)
            swapped = BivarPoly.from_dict(
                {(db, da): c for (da, db), c in sweep["A1"].coeffs}
            )
            assert swapped == sweep["1B"]

    @pytest.mark.parametrize("n", range(3, 7))
    def test_corners_closed_form_under_conjecture(self, n):
        assert corners_ab(n) == corners_closed_form(n)

    def test_corners_at_ones(self):
        from treelike.counting import tlt_corner_count

        for n in range(1, 7):
            assert corners_ab(n).evaluate(1, 1) == tlt_corner_count(n)


class TestEulerTable:
    def test_base_and_first_rows(self):
        assert euler_table(1) == {1: ONE}
        assert euler_table(2) == {1: A, 2: B}
        t3 = euler_table(3)
        assert t3[1] == A * A
        assert t3[2] == A + B + (A * B).scale(2)
        assert t3[3] == B * B

    @pytest.mark.parametrize("n", range(1, 7))
    def test_oracle(self, n):
        assert euler_oracle(n) == euler_table(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_sum(self, n):
        total = BivarPoly.zero()
        for p in euler_table(n).values():
            total = total + p
        assert total == t_poly(n)

    def test_classical_specialization(self):
        # at a = b = 1 the table obeys k A(n,k) + (n+2-k) A(n,k-1)
        for n in range(2, 8):
            prev = {k: p.evaluate(1, 1) for k, p in euler_table(n - 1).items()}
            cur = {k: p.evaluate(1, 1) for k, p in euler_table(n).items()}
            for k in range(1, n + 1):
                want = k * prev.get(k, 0) + (n + 1 - k) * prev.get(k - 1, 0)
                assert cur.get(k, 0) == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_derivative_closed_form(self, n):
        assert euler_derivative_at_1(n) == euler_derivative_closed_form(n)

    def test_derivative_fixtures(self):
        assert euler_derivative_at_1(2) == A + B.scale(2)
        assert euler_derivative_at_1(3).evaluate(1, 1) == 12


class TestExpectedJumps:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_defining_equals_closed(self, n):
        assert expected_jumps_defining(n).equals(expected_jumps_closed_form(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_value_at_ones(self, n):
        d = expected_jumps_defining(n)
        assert Fraction(d.num.evaluate(1, 1), d.den.evaluate(1, 1)) == Fraction(n + 2, 3)

    def test_size_two_fixture(self):
        d = expected_jumps_defining(2)
        assert d.num.evaluate(1, 1) == 2 * 7 - 6
        assert d.den.evaluate(1, 1) == 6

    @pytest.mark.parametrize("n", range(2, 7))
    def test_printed_form_differs(self, n):
        printed = expected_jumps_printed_form(n)
        assert not printed.equals(expected_jumps_defining(n))
        # off by exactly the factor three in the denominator
        tripled = RationalExpr(printed.num, printed.den.scale(3))
        assert tripled.equals(expected_jumps_defining(n))
