"""Two-variable polynomial weights and the weighted counting results.

Polynomials live in Z[a, b] as sparse exponent-to-coefficient maps with
exact integer coefficients. Weighted totals come from the cached surveys,
so one sweep per size feeds every polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .counting import tlt_survey


@dataclass(frozen=True, slots=True)
class BivarPoly:
    """Polynomial in a and b; keys are (degA, degB), no zero coefficients."""

    coeffs: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> "BivarPoly":
        return BivarPoly(tuple(sorted(kv for kv in d.items() if kv[1])))

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly(())

    @staticmethod
    def const(c: int) -> "BivarPoly":
        return BivarPoly((((0, 0), c),) if c else ())

    @staticmethod
    def term(c: int, da: int, db: int) -> "BivarPoly":
        return BivarPoly((((da, db), c),) if c else ())

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.coeffs)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        d = dict(self.coeffs)
        get = d.get
        for k, v in other.coeffs:
            d[k] = get(k, 0) + v
        return BivarPoly.from_dict(d)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        d: dict[tuple[int, int], int] = {}
        get = d.get
        for (da, db), u in self.coeffs:
            for (ea, eb), v in other.coeffs:
                k = (da + ea, db + eb)
                d[k] = get(k, 0) + u * v
        return BivarPoly.from_dict(d)

    def scale(self, c: int) -> "BivarPoly":
        # scaling keeps the terms in order
        return BivarPoly(tuple((k, c * v) for k, v in self.coeffs) if c else ())

    def evaluate(self, a: int, b: int) -> int:
        return sum(v * a**da * b**db for (da, db), v in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        """Canonical text: terms sorted by (degA, degB), explicit signs."""
        if not self.coeffs:
            return "0"
        parts = []
        for (da, db), v in self.coeffs:
            if da:
                body = "a" if da == 1 else f"a^{da}"
                if db:
                    body += "*b" if db == 1 else f"*b^{db}"
            elif db:
                body = "b" if db == 1 else f"b^{db}"
            else:
                body = ""
            mag = -v if v < 0 else v
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            parts.append(f"- {piece}" if v < 0 else f"+ {piece}")
        out = " ".join(parts)
        return out[2:] if out[0] == "+" else "-" + out[2:]


A = BivarPoly.term(1, 1, 0)
B = BivarPoly.term(1, 0, 1)
ONE = BivarPoly.const(1)
A_PLUS_B = A + B


def first_difference(p: BivarPoly, q: BivarPoly):
    """First (degA, degB) where the two polynomials disagree, or None."""
    dp, dq = p.as_dict(), q.as_dict()
    for k in sorted(set(dp) | set(dq)):
        if dp.get(k, 0) != dq.get(k, 0):
            return k, dp.get(k, 0), dq.get(k, 0)
    return None


@dataclass(frozen=True)
class RationalExpr:
    """Quotient of two polynomials, compared by cross-multiplication."""

    num: BivarPoly
    den: BivarPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ValueError("zero denominator")

    def equals(self, other: "RationalExpr") -> bool:
        return self.num * other.den == other.num * self.den


# ---------------------------------------------------------------------------
# weights


@lru_cache(maxsize=64)
def t_poly(n: int) -> BivarPoly:
    """Rising product (a+b)(a+b+1)...(a+b+n-2); 1 for n = 0 and n = 1."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n <= 1:
        return ONE
    return t_poly(n - 1) * (A_PLUS_B + BivarPoly.const(n - 2))


def weight_sum(n: int) -> BivarPoly:
    """Sum of a^top b^left over all tree-like tableaux of size n."""
    return BivarPoly.from_dict(tlt_survey(n).weight)


def occupied_ab(n: int) -> BivarPoly:
    """Occupied corners, weighted: sum of occ(T) a^top b^left."""
    return BivarPoly.from_dict(tlt_survey(n).occ_weight)


def noc_ab(n: int) -> BivarPoly:
    """Non-occupied corners, weighted."""
    return BivarPoly.from_dict(tlt_survey(n).noc_weight)


def corners_ab(n: int) -> BivarPoly:
    return occupied_ab(n) + noc_ab(n)


def noc_class_ab(n: int) -> dict[str, BivarPoly]:
    return {
        cls: BivarPoly.from_dict(d) for cls, d in tlt_survey(n).class_weight.items()
    }


def conjecture_noc_ab(n: int) -> BivarPoly:
    """Conjectured closed form for the weighted non-occupied corner count."""
    if n < 3:
        raise ValueError("need n >= 3")
    inner = (
        (A * B).scale(n - 2)
        + (A + B).scale(comb(n - 2, 2))
        + BivarPoly.const(comb(n - 2, 3))
    )
    return inner * t_poly(n - 2)


def class_closed_form(n: int, cls: str) -> BivarPoly:
    """Conjectured per-class closed forms; only three classes have one."""
    if n < 3:
        raise ValueError("need n >= 3")
    if cls == "AB":
        return (A * B).scale(n - 2) * t_poly(n - 2)
    if cls == "A1":
        return A.scale(comb(n - 2, 2)) * t_poly(n - 2)
    if cls == "1B":
        return B.scale(comb(n - 2, 2)) * t_poly(n - 2)
    raise ValueError(f"no closed form for class {cls!r}")


# ---------------------------------------------------------------------------
# row-count refinement


@lru_cache(maxsize=64)
def euler_table(n: int) -> dict[int, BivarPoly]:
    """Row-count refinement A(n, k) of the weighted count, by recurrence:
    A(n+1, k) = (a-1+k) A(n, k) + (b+n+1-k) A(n, k-1), from A(1, 1) = 1."""
    if n < 1:
        raise ValueError("size must be positive")
    if n == 1:
        return {1: ONE}
    prev = euler_table(n - 1)
    m = n - 1
    out: dict[int, BivarPoly] = {}
    for k in range(1, n + 1):
        acc = BivarPoly.zero()
        if k in prev:
            acc = acc + (A + BivarPoly.const(k - 1)) * prev[k]
        if k - 1 in prev:
            acc = acc + (B + BivarPoly.const(m + 1 - k)) * prev[k - 1]
        if not acc.is_zero():
            out[k] = acc
    return out


def euler_oracle(n: int) -> dict[int, BivarPoly]:
    """The same refinement read off the catalogue: weights summed over
    tableaux with exactly k rows."""
    per_k: dict[int, dict[tuple[int, int], int]] = {}
    for (k, top, left), c in tlt_survey(n).rows_weight.items():
        d = per_k.setdefault(k, {})
        d[(top, left)] = d.get((top, left), 0) + c
    return {k: BivarPoly.from_dict(d) for k, d in sorted(per_k.items())}


def euler_derivative_at_1(n: int) -> BivarPoly:
    """Sum of k A(n, k): the mean row count, unnormalized."""
    out = BivarPoly.zero()
    for k, p in euler_table(n).items():
        out = out + p.scale(k)
    return out


def euler_derivative_closed_form(n: int) -> BivarPoly:
    if n < 2:
        raise ValueError("need n >= 2")
    return (A + B.scale(n) + BivarPoly.const(comb(n, 2) - 1)) * t_poly(n - 1)


# ---------------------------------------------------------------------------
# expected jumps


@lru_cache(maxsize=64)
def expected_jumps_defining(n: int) -> RationalExpr:
    """Average of 2 c(T) - 1 over size n+1, weighted: the mean number of
    jumps of the associated zigzag process."""
    if n < 1:
        raise ValueError("need n >= 1")
    num = corners_ab(n + 1).scale(2) - t_poly(n + 1)
    return RationalExpr(num, t_poly(n + 1))


def expected_jumps_closed_form(n: int) -> RationalExpr:
    """The printed form over the corrected denominator 3 (a+b+n-1)(a+b+n-2)."""
    printed = expected_jumps_printed_form(n)
    return RationalExpr(printed.num, printed.den.scale(3))


@lru_cache(maxsize=64)
def expected_jumps_printed_form(n: int) -> RationalExpr:
    """The closed form's numerator over the untripled denominator
    (a+b+n-1)(a+b+n-2), as printed; kept for the discrepancy report."""
    if n < 2:
        raise ValueError("need n >= 2")
    num = (
        (A * A + B * B).scale(3)
        + (A * B).scale(6 * n)
        + (A + B).scale(3 * (n * n - n - 1))
        + BivarPoly.const(n * (n - 1) * (n - 2))
    )
    den = (A + B + BivarPoly.const(n - 1)) * (A + B + BivarPoly.const(n - 2))
    return RationalExpr(num, den)
