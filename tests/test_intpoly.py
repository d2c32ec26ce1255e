import random
from fractions import Fraction
from itertools import product
from math import inf, nextafter

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specmax import intpoly
from specmax.intpoly import (
    IntPolynomial,
    char_poly,
    compare_max_real_roots,
    max_real_root,
    progression_below,
    progression_max_roots,
    roots_below,
    scaled_value,
)
from specmax.intpoly import (
    _newton_seed,
    _progression_signs,
    _rounds_to,
    _samuelson_bound,
    _shift,
    _straddles,
    _sturm_chain,
    _variations,
)


def bareiss_det(matrix):
    """Fraction-free Gaussian elimination determinant (independent oracle)."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class TestCharPoly:
    def test_identity_2x2(self):
        assert char_poly([[1, 0], [0, 1]]).coeffs == (1, -2, 1)

    def test_printed_cubic(self):
        # three-cell quotient at order 7 with low degree 4
        m = [[0, 4, 0], [1, 2, 2], [0, 4, 1]]
        assert char_poly(m).coeffs == (4, -10, -3, 1)

    def test_printed_quartic(self):
        m = [[0, 1, 0, 0], [1, 0, 0, 4], [0, 0, 1, 4], [0, 1, 2, 2]]
        assert char_poly(m).coeffs == (6, 7, -11, -3, 1)

    def test_against_bareiss_determinant(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = char_poly(m)
            for lam in (0, 1, -1, 2, -2):
                shifted = [
                    [lam * (i == j) - m[i][j] for j in range(n)] for i in range(n)
                ]
                assert scaled_value(p.coeffs, (lam, 1)) == bareiss_det(shifted)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2]])

    def test_fractional_entry_rejected(self):
        with pytest.raises(ValueError):
            char_poly([[Fraction(1, 2)]])

    # diagonal 10^6 over small off-diagonal entries: the constant term is
    # near 10^36 and the products near 10^30, far beyond int64
    BIG = [[10**6 if i == j else (i * 7 + j * 3) % 5 - 2 for j in range(6)] for i in range(6)]

    def test_coefficients_beyond_int64_match_sympy(self):
        p = char_poly(self.BIG)
        assert max(abs(c) for c in p.coeffs) > 2**63
        assert p.coeffs == tuple(reversed(sympy.Matrix(self.BIG).charpoly().all_coeffs()))

    def test_int64_array_matches_list(self):
        assert char_poly(np.array(self.BIG, dtype=np.int64)) == char_poly(self.BIG)

    @pytest.mark.parametrize("entry", [0.5, 1.0])
    def test_float_entry_rejected(self, entry):
        with pytest.raises(ValueError):
            char_poly([[entry]])


def sturm_count(p: IntPolynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi] from one Sturm chain, the count
    behind the fallback of `max_real_root` and `compare_max_real_roots`;
    lo None is -infinity, hi None is +infinity."""
    chain = _sturm_chain(p.coeffs)
    a = (-1, 0) if lo is None else Fraction(lo).as_integer_ratio()
    b = (1, 0) if hi is None else Fraction(hi).as_integer_ratio()
    return _variations(chain, a) - _variations(chain, b)


class TestCounting:
    def test_quadratic(self):
        p = IntPolynomial((-4, 0, 1))
        assert sturm_count(p) == 2
        assert sturm_count(p, 0) == 1
        assert sturm_count(p, 2) == 0
        assert sturm_count(p, 1, 2) == 1  # root exactly at hi
        assert sturm_count(p, -2, 2) == 1  # root at lo excluded

    def test_repeated_roots_counted_once(self):
        p = IntPolynomial((1, -2, 1))  # (x-1)^2
        assert sturm_count(p, 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count(IntPolynomial((1, 0, 1))) == 0


class TestMaxRealRoot:
    def test_simple(self):
        p = IntPolynomial((-4, 0, 1))
        assert max_real_root(p) == pytest.approx(2, abs=1e-12)

    def test_exact_rational_hit(self):
        p = IntPolynomial((-4, 0, 1))
        assert max_real_root(p) == 2.0

    def test_cubic_family_value(self):
        # order-5 family quotient: lambda^3 - lambda^2 - 6 lambda + 2
        p = IntPolynomial((2, -6, -1, 1))
        r = max_real_root(p)
        assert r == pytest.approx(2.85577, abs=1e-4)

    def test_order60_quartic(self):
        p = IntPolynomial((58, 111, -115, -55, 1))
        r = max_real_root(p)
        assert 56.9 < r < 57.0

    def test_auto_isolation_matches(self):
        # the correctly rounded double of sympy's exact root, evaluated to
        # 40 digits (far from a rounding boundary for this cubic)
        p = IntPolynomial((2, -6, -1, 1))
        x = sympy.Symbol("x")
        exact = max(sympy.Poly(list(reversed(p.coeffs)), x).real_roots())
        assert max_real_root(p) == float(exact.evalf(40))

    def test_root_on_rounding_tie(self):
        # 1 + 3/2^53 lies halfway between two doubles and rounds to even,
        # so no bracket below it ever rounds to the same double as the root
        for num in (2**53 + 1, 2**53 + 3):
            p = IntPolynomial((-num, 2**53))
            assert max_real_root(p) == float(Fraction(num, 2**53))

    def test_even_multiplicity_max_root(self):
        p = IntPolynomial((1, -2, 1))  # (x-1)^2, no sign change at the root
        assert max_real_root(p) == pytest.approx(1, abs=1e-10)


def moved_up(p: IntPolynomial, k) -> IntPolynomial:
    """b^d * p(t - a/b) for k = a/b: the roots of p moved up by k."""
    return IntPolynomial(tuple(_shift(p.coeffs, Fraction(k).as_integer_ratio())))


class TestPolyDominates:
    """Pairs with p2 >= p1 from 0 on, so that p2's maximum root is at most
    p1's, decided by the routes the ordering suites use: `roots_below` at
    the separator just under the larger root, and `compare_max_real_roots`."""

    def test_constant_gap(self):
        assert compare_max_real_roots(IntPolynomial((-1, 1)), IntPolynomial((-2, 1))) == -1

    def test_quartic_pair_order10(self):
        f1 = IntPolynomial((8, 11, -15, -5, 1))
        f2 = IntPolynomial((18, 13, -15, -5, 1))
        assert compare_max_real_roots(f2, f1) == -1
        assert compare_max_real_roots(f1, f2) == 1
        assert roots_below(f2, nextafter(max_real_root(f1), -inf))

    def test_family_cubics_order9(self):
        # even low degrees at odd order 9: delta = 6 beats smaller ones
        def f(d, n=9):
            return IntPolynomial((-(d * d + 2 * d - n * d), 4 - 2 * n, 4 - n, 1))

        assert compare_max_real_roots(f(6), f(2)) == 1
        assert roots_below(f(2), nextafter(max_real_root(f(6)), -inf))

    def test_touching_counts_as_domination(self):
        # p2 - p1 = (x - 1)^2 touches 0 at the common root 1, which is the
        # maximum root of neither
        p1 = IntPolynomial((3, -4, 1))  # (x - 1)(x - 3)
        p2 = IntPolynomial((4, -6, 2))  # 2(x - 1)(x - 2)
        assert compare_max_real_roots(p2, p1) == -1
        assert roots_below(p2, nextafter(3.0, -inf))

    def test_identical(self):
        p = IntPolynomial((-6, 1, 1))  # (x + 3)(x - 2)
        assert compare_max_real_roots(p, p) == 0


class TestShiftedRootBound:
    """B_delta at n = 59: rho(B_3) + 1/n^2 < rho(B_54) < rho(B_3) + 1, with
    B_3's roots moved up by `_shift`."""

    @staticmethod
    def b(d, n=59):
        return IntPolynomial((-d * d + (n - 3) * d, 9 - 3 * n, 6 - n, 1))

    def test_zero_shift_identity(self):
        p = self.b(3)
        assert moved_up(p, 0) == p

    def test_order59_shift(self):
        assert compare_max_real_roots(self.b(54), moved_up(self.b(3), Fraction(1, 59 * 59))) == 1

    def test_too_large_shift_fails(self):
        assert compare_max_real_roots(self.b(54), moved_up(self.b(3), 1)) == -1


class TestCompareMaxRealRoots:
    def test_shared_root_different_polys(self):
        pa = IntPolynomial((-10, 3, 1))  # (x-2)(x+5)
        pb = IntPolynomial((-14, 5, 1))  # (x-2)(x+7)
        assert compare_max_real_roots(pa, pb) == 0

    def test_strict_order(self):
        assert compare_max_real_roots(IntPolynomial((-4, 0, 1)), IntPolynomial((-9, 0, 1))) == -1
        assert compare_max_real_roots(IntPolynomial((-9, 0, 1)), IntPolynomial((-4, 0, 1))) == 1

    def test_close_roots_separate(self):
        # roots at 1000001/1000000 vs 1
        pa = IntPolynomial((-1000001, 1000000))
        pb = IntPolynomial((-1, 1))
        assert compare_max_real_roots(pa, pb) == 1

    def test_tied_family_pair_order8(self):
        def f(d, n=8):
            return IntPolynomial((-(d * d + 2 * d - n * d), 4 - 2 * n, 4 - n, 1))

        assert f(2) == f(4)
        assert compare_max_real_roots(f(2), f(4)) == 0


# -- differential tests against sympy ----------------------------------------

X = sympy.Symbol("x")
FACTOR = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)
LINEAR = st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3, -1, -2])).map(list)
POINT = st.fractions(min_value=-10, max_value=10, max_denominator=6)
MONIC_QUARTIC = st.lists(st.integers(-30, 30), min_size=4, max_size=4).map(
    lambda c: IntPolynomial((*c, 1))
)
SETTINGS = settings(max_examples=150, deadline=None)


def _mul(*factors) -> IntPolynomial:
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return IntPolynomial(tuple(out))


# products of small factors, so repeated and rational roots are common
POLY = st.lists(FACTOR, min_size=1, max_size=3).map(lambda fs: _mul(*fs))
# a linear factor guarantees a real root
REAL_POLY = st.tuples(LINEAR, st.lists(FACTOR, max_size=2)).map(lambda t: _mul(t[0], *t[1]))


def _sympy(p: IntPolynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), X)


def _sympy_max_root(p: IntPolynomial):
    return max(sympy.real_roots(_sympy(p)), key=lambda r: r.evalf(60))


class TestAgainstSympy:
    @SETTINGS
    @given(POLY, st.none() | POINT, st.none() | POINT)
    def test_count_roots(self, p, lo, hi):
        assume(lo is None or hi is None or lo < hi)
        # sympy counts [lo, hi], ours (lo, hi]
        at_lo = lo is not None and _sympy(p).eval(lo) == 0
        want = _sympy(p).count_roots(lo, hi) - at_lo
        assert sturm_count(p, lo, hi) == want

    @SETTINGS
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2,
                           max_size=n * (n + 1) // 2).map(lambda bits: (n, bits))))
    def test_char_poly(self, shape):
        n, bits = shape
        m = [[0] * n for _ in range(n)]
        it = iter(bits)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        want = sympy.Matrix(m).charpoly(X).all_coeffs()
        assert char_poly(m).coeffs == tuple(int(c) for c in reversed(want))

    @SETTINGS
    @given(REAL_POLY, REAL_POLY, st.lists(FACTOR, max_size=1))
    def test_compare_max_real_roots(self, p, q, shared):
        p, q = _mul(p.coeffs, *shared), _mul(q.coeffs, *shared)
        rp, rq = _sympy_max_root(p), _sympy_max_root(q)
        want = 0 if rp == rq else (1 if rp.evalf(60) > rq.evalf(60) else -1)
        assert compare_max_real_roots(p, q) == want
        assert compare_max_real_roots(q, p) == -want

    @SETTINGS
    @given(REAL_POLY)
    def test_max_real_root_correctly_rounded(self, p):
        assert max_real_root(p) == float(_sympy_max_root(p).evalf(60))

    @SETTINGS
    @given(MONIC_QUARTIC, POINT)
    def test_shift(self, p, x):
        # the coefficients of b^d * p(t - a/b) for x = a/b
        a, b = x.as_integer_ratio()
        want = sympy.Poly(b**p.degree * _sympy(p).as_expr().subs(X, X - sympy.Rational(a, b)), X)
        assert _shift(p.coeffs, (a, b)) == [int(c) for c in reversed(want.all_coeffs())]


# -- the certificates ahead of the Sturm paths -------------------------------

# monic quartics shaped like the family quotients: four real roots of either
# sign up to a few hundred, plus a constant that may make some complex
RANGED_QUARTIC = st.tuples(
    st.lists(st.integers(-300, 300), min_size=4, max_size=4), st.integers(-50, 50)
).map(lambda t: _mul(*[[-r, 1] for r in t[0]]) - IntPolynomial((t[1],)))


def _rounded_root(p: IntPolynomial) -> float:
    return float(_sympy_max_root(p).evalf(60))


class TestCertificates:
    @SETTINGS
    @given(POLY | RANGED_QUARTIC, POINT)
    def test_roots_below_agrees_with_sympy(self, p, x):
        assume(p.degree >= 1)
        if roots_below(p, x):
            assert _sympy(p).count_roots(x, None) == 0
        # at the Cauchy bound every derivative has the leading sign too
        # (Gauss-Lucas), so the certificate always decides there
        bound = 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.coeffs[-1]))
        assert roots_below(p, bound)

    @SETTINGS
    @given(RANGED_QUARTIC | REAL_POLY)
    def test_max_real_root_matches_sympy(self, p):
        assume(_sympy(p).count_roots() > 0)
        assert max_real_root(p) == _rounded_root(p)

    @SETTINGS
    @given(RANGED_QUARTIC | REAL_POLY)
    def test_rounding_certificate_accepts_only_the_rounded_root(self, p):
        assume(_sympy(p).count_roots() > 0)
        want = _rounded_root(p)
        near = [want]
        for _ in range(3):
            near = [nextafter(near[0], -inf)] + near + [nextafter(near[-1], inf)]
        assert [r for r in near if _rounds_to(p.coeffs, r)] in ([], [want])

    @SETTINGS
    @given(
        st.lists(st.tuples(st.integers(-3, 30), st.integers(-4, 4), st.integers(-3, 3), st.integers(0, 11)), max_size=4),
        st.integers(1, 12),
        st.just(Fraction(0)) | POINT,
    )
    def test_progression_below_is_roots_below_at_every_k(self, quadratics, count, x):
        # p_k(t) = t^d + sum_i (e_i + b_i k + c_i (k - m_i)(k - m_i - 1)) t^i
        family = [
            IntPolynomial(tuple(e + b * k + c * (k - m) * (k - m - 1) for e, b, c, m in quadratics) + (1,))
            for k in range(count)
        ]
        assert progression_below(family[:3], count, x) == all(roots_below(p, x) for p in family)

    def test_progression_below_sees_a_dip_between_the_ends(self):
        # constant term e + c (k - m)(k - m - 1) at x = 0, least at k = m and
        # m + 1: every dip of depth e <= 0 inside 1..count-2, with both ends
        # positive, is refused, and nothing else is
        dips = 0
        for e, c, m, count in product(range(-3, 4), range(3), range(7), range(1, 9)):
            family = [IntPolynomial((e + c * (k - m) * (k - m - 1), 1, 1)) for k in range(count)]
            want = all(roots_below(p, Fraction(0)) for p in family)
            dips += not want and roots_below(family[0], Fraction(0)) and roots_below(family[-1], Fraction(0))
            assert progression_below(family[:3], count, Fraction(0)) == want, (e, c, m, count)
        assert dips > 50

    def test_rounding_certificate_decides_the_family_quartics(self):
        # B_n5 at n = 60 and 1000, B1 at n = 60: the seed is certified
        for p in ((283, 162, -172, -54, 1), (4983, 2982, -2992, -994, 1), (58, 111, -115, -55, 1)):
            assert _rounds_to(p, _newton_seed(p))

    def test_cubic_root_of_two_falls_back(self):
        # x^3 - 2: the mean and variance its coefficients give are 0 (two
        # roots are complex), so the Laguerre-Samuelson start 0 is below the
        # real root, Newton stalls there, and the Sturm bisection rounds it
        p = IntPolynomial((-2, 0, 0, 1))
        assert _samuelson_bound(p.coeffs) == 0.0 < 2 ** (1 / 3)
        assert not _rounds_to(p.coeffs, _newton_seed(p.coeffs))
        assert max_real_root(p) == _rounded_root(p)

    def test_root_on_a_midpoint_falls_back(self):
        # 1 + 2^-53 is the midpoint between 1.0 and the next double up:
        # neither neighbour can be certified, and the bisection rounds to even
        p = IntPolynomial((-(2**53 + 1), 2**53))
        assert not _rounds_to(p.coeffs, 1.0)
        assert not _rounds_to(p.coeffs, nextafter(1.0, inf))
        assert max_real_root(p) == 1.0

    def test_complex_pair_far_right_falls_back(self):
        # (x - 1)((x - 100)^2 + 1): the complex pair leaves sign variations
        # after every shift below 100, so Descartes stays undecided
        p = _mul([-1, 1], [10001, -200, 1])
        assert not roots_below(p, Fraction(3, 2))
        assert _sympy(p).count_roots(Fraction(3, 2), None) == 0
        assert not _rounds_to(p.coeffs, 1.0)
        # Newton from the Laguerre-Samuelson start does not reach the real
        # root, so the Sturm bisection rounds it
        assert not _rounds_to(p.coeffs, _newton_seed(p.coeffs))
        assert max_real_root(p) == _rounded_root(p) == 1.0


def _decided(family):
    """`progression_max_roots(family)`, the integer t its certificate shifted
    to (None when it did not shift) and whether any row was certified under
    the one-root certificate (`_straddles`)."""
    seen = {"t": None, "single": False}

    def signs(first, count, x):
        seen["t"] = x[0]
        return _progression_signs(first, count, x)

    def straddles(c, r):
        held = _straddles(c, r)
        seen["single"] |= held
        return held

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intpoly, "_progression_signs", signs)
        mp.setattr(intpoly, "_straddles", straddles)
        values = progression_max_roots(family)
    return values, seen["t"], seen["single"]


def _progression(base, step, curve, count):
    """p_k = base + k * step + C(k, 2) * curve, k < count, where step and
    curve move each coefficient below base's leading one (they are at least
    that long): every coefficient is quadratic in k."""
    return [
        IntPolynomial(tuple(b + k * u + k * (k - 1) // 2 * v for b, u, v in zip(base[:-1], step, curve)) + base[-1:])
        for k in range(count)
    ]


# a real-rooted p_0 of degree 2 to 5 moved by small steps in k: some members
# keep one root far above the rest, some gain a second one near the top or
# a complex pair, some lose every real root
PROGRESSION = st.builds(
    lambda roots, step, curve, count: _progression(_mul(*[[-r, 1] for r in roots]).coeffs, step, curve, count),
    st.lists(st.integers(-40, 40), min_size=2, max_size=5),
    st.lists(st.integers(-30, 30), min_size=5, max_size=5),
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
    st.integers(3, 10),
)


class TestProgressionRoots:
    @SETTINGS
    @given(PROGRESSION)
    def test_progression_max_roots_is_max_real_root_at_every_k(self, family):
        try:
            want = [max_real_root(p) for p in family]
        except ValueError:
            # a member with no real root: the certificate cannot hold, and
            # the member's fallback raises as max_real_root does
            with pytest.raises(ValueError):
                progression_max_roots(family)
            return
        values, t, single = _decided(family)
        assert values == want
        if single:
            # certified: each member has exactly one distinct real root above t
            assert all(_sympy(p).count_roots(t, None) == 1 for p in family)

    def test_second_root_above_t_is_refused(self):
        # (x - 40 - 2k)(2x - 79 - 2k)(x + 3): roots 40 + 2k and 39.5 + k, both
        # above t <= 39, so Descartes sees two sign changes
        family = [_mul([-40 - 2 * k, 1], [-79 - 2 * k, 2], [3, 1]) for k in range(6)]
        values, t, single = _decided(family)
        assert t <= 39 and not single
        assert values == [max_real_root(p) for p in family] == [_rounded_root(p) for p in family]

    def test_complex_pair_is_refused(self):
        # (x - 1 - k)((x - 100)^2 + 1): the pair 100 +- i lies above every
        # real root, so no shift below it leaves one sign change
        family = [_mul([-1 - k, 1], [10001, -200, 1]) for k in range(5)]
        values, _, single = _decided(family)
        assert not single
        assert values == [max_real_root(p) for p in family] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_flipped_sign_is_refused_with_the_same_values(self):
        # (x - 30 - k)(x - 2)(x + 1)(x + 5) is certified; with its x^2
        # coefficient negated, p_k(t + u) has three sign changes
        family = [_mul([-30 - k, 1], [-2, 1], [1, 1], [5, 1]) for k in range(8)]
        values, t, single = _decided(family)
        assert single and values == [max_real_root(p) for p in family]
        flipped = [IntPolynomial(p.coeffs[:2] + (-p.coeffs[2],) + p.coeffs[3:]) for p in family]
        values, _, single = _decided(flipped)
        assert not single
        assert values == [max_real_root(p) for p in flipped] == [_rounded_root(p) for p in flipped]

    def test_fewer_than_three_members_go_to_max_real_root(self):
        family = [_mul([-3, 1], [1, 1]), _mul([-4, 1], [1, 1])]
        assert _decided(family) == ([3.0, 4.0], None, False)
        assert progression_max_roots([]) == []
