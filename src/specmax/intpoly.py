"""Exact univariate polynomial machinery over the integers.

Provides characteristic polynomials of small integer matrices (integer
trace recursion, products on numpy object arrays of Python ints), Sturm
sequences built as primitive remainder sequences in Z[x], real-root
counting and isolation, and the sign decisions used throughout the
verification suites: ordering of maximum real roots and Descartes
certificates after a shift. Every decision runs on integer
coefficients; a rational point a/b enters as b^d * p(a/b). Floats appear
only in the correctly rounded root and in its exactly checked Newton seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import floor, gcd, inf, isfinite, nextafter, sqrt

import numpy as np


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial; coeffs run constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(map(int, self.coeffs))
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        m = max(len(a), len(b))
        return IntPolynomial(
            tuple(
                (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(m)
            )
        )


# -- characteristic polynomial ------------------------------------------


def char_poly(matrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(lambda*I - M).

    Accepts a square matrix of integers, Python or numpy.  Uses the trace
    recursion M_k = M(M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k, whose
    divisions are exact over the integers.  The products run on a numpy
    object array of Python ints, so no entry overflows.
    """
    try:
        rows = [[operator.index(x) for x in r] for r in matrix]
    except TypeError:
        raise ValueError("matrix entries must be integers") from None
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = np.array(rows, dtype=object)
    eye = np.identity(n, dtype=object)
    work = a
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        ck, r = divmod(-work.trace(), k)
        if r:
            raise ArithmeticError("non-integer trace division in char_poly")
        coeffs[n - k] = ck
        if k < n:
            work = a @ (work + ck * eye)
    return IntPolynomial(tuple(coeffs))


# -- integer coefficient helpers ------------------------------------------
#
# Polynomials are coefficient tuples of ints, constant term first, with no
# trailing zeros (IntPolynomial.coeffs).  A point x = a/b is the reduced
# pair (a, b) with b > 0; (1, 0) and (-1, 0) stand for +infinity and
# -infinity.


def _le(x, y) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def _mid(x, y) -> tuple[int, int]:
    """The midpoint of x and y."""
    a, b = x[0] * y[1] + y[0] * x[1], x[1] * y[1] * 2
    g = gcd(a, b)
    return a // g, b // g


def scaled_value(c, x) -> int:
    """b^d * p(a/b) = sum c_i a^i b^(d-i) for x = (a, b), d = deg p, in
    integers; with b = 0 only the leading term survives."""
    a, b = x
    acc, scale = 0, 1
    for coef in reversed(c):
        acc = acc * a + coef * scale
        scale *= b
    return acc


def _sign_at(c, x) -> int:
    """Sign of p(a/b), or of p at +-infinity when b = 0."""
    v = scaled_value(c, x)
    return (v > 0) - (v < 0)


def _derivative(c) -> tuple[int, ...]:
    return tuple(i * c[i] for i in range(1, len(c)))


def _primitive(c) -> tuple[int, ...]:
    """c divided by the gcd of its coefficients (signs kept)."""
    g = gcd(*c)
    return tuple(v // g for v in c)


def _exact_div(a, b) -> tuple[int, ...]:
    """Quotient a / b when b divides a in Z[x] (b primitive, so by Gauss's
    lemma every long-division step divides exactly)."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + db] // b[-1]
        for j, bj in enumerate(b):
            rem[i + j] -= q * bj
    return tuple(quot)


def _prs(a, b) -> list[tuple[int, ...]]:
    """Primitive remainder sequence a, b, r2, r3, ... down to the last nonzero.

    Each r(k+1) is the primitive part of -prem(r(k-1), r(k)), the
    pseudo-remainder taken with its sign corrected, so it is a positive
    multiple of the Euclidean -rem(r(k-1), r(k)): with b = a' the sequence
    is a Sturm sequence, and its last element is gcd(a, b) up to a constant.
    """
    seq = [a]
    while b:
        seq.append(b)
        # r = lead(b)^m * a - q * b after m elimination steps
        r, m, lead = list(a), 0, b[-1]
        while len(r) >= len(b):
            f, shift = r[-1], len(r) - len(b)
            r = [lead * v for v in r]
            for i, bi in enumerate(b):
                r[shift + i] -= f * bi
            m += 1
            while r and r[-1] == 0:
                r.pop()
        if lead < 0 and m % 2:
            r = [-v for v in r]
        a, b = b, _primitive([-v for v in r]) if r else ()
    return seq


def _sturm_chain(c) -> list[tuple[int, ...]]:
    """Sturm sequence of the square-free part of c, which is chain[0].

    Its roots are the distinct roots of c, all simple, so the variation
    count V(lo) - V(hi) is the number of distinct roots in (lo, hi] for any
    lo < hi, roots at the endpoints included.
    """
    chain = _prs(c, _derivative(c))
    if len(chain[-1]) > 1:
        c = _exact_div(c, _primitive(chain[-1]))
        chain = _prs(c, _derivative(c))
    return chain


def _variations(chain, x) -> int:
    seq = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _shift(c, x) -> list[int]:
    """Coefficients of b^d * p(t - a/b) for x = a/b, d = deg p: shift the
    scaled b^d * p(u/b), whose coefficient c_i carries b^(d-i), by -a in
    place (Ruffini-Horner), then put u = b*t."""
    a, b = x
    e = list(c)
    d = len(e) - 1
    scale = 1
    for i in range(d - 1, -1, -1):
        scale *= b
        e[i] *= scale
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            e[j] -= a * e[j + 1]
    scale = 1
    for k in range(1, d + 1):
        scale *= b
        e[k] *= scale
    return e


def _root_bound(c) -> int:
    """An integer B with |z| < B for every complex root z of a nonconstant
    polynomial: 1 + ceil(max |c_i| / |c_d|) (Cauchy)."""
    return 1 - (-max(abs(v) for v in c[:-1]) // abs(c[-1]))


def _clear_from(c, x) -> bool:
    """Descartes certificate that p has no root in [x, inf): every
    coefficient of b^d * p(t + a/b) has the sign of the leading one. False
    means undecided."""
    lead = c[-1]
    return all(v * lead > 0 for v in _shift(c, (-x[0], x[1])))


def _samuelson_bound(c) -> float:
    """mean + sqrt((d - 1) var) of the roots, read from the top three
    coefficients: above every root when all of them are real (Laguerre;
    Samuelson, "How deviant can you be?", 1968). Only a Newton start."""
    d, lead, b = len(c) - 1, c[-1], c[-2]
    r = (d - 1) * ((d - 1) * b * b - 2 * d * lead * (c[-3] if d > 1 else 0))
    return (sqrt(max(r, 0)) - (b if lead > 0 else -b)) / (abs(lead) * d)


def _newton_seed(c) -> float:
    """Float Newton iterate from the Laguerre-Samuelson bound down toward the
    maximum real root; a guess only, possibly wrong or non-finite (inf when
    the coefficients or the bound overflow a float)."""
    try:
        f, x = [float(v) for v in reversed(c)], _samuelson_bound(c)
    except OverflowError:
        return inf
    for _ in range(200):
        val = slope = 0.0
        for v in f:
            val, slope = val * x + v, slope * x + val
        step = x - val / slope if slope else x
        if not step < x:
            break
        x = step
    return x


def _midpoints(r: float):
    """The midpoints from r to the next double down and to the next double
    up, as integer ratios; None when r or a neighbour is not finite."""
    up, down = nextafter(r, inf), nextafter(r, -inf)
    if not (isfinite(up) and isfinite(down)):
        return None
    r = r.as_integer_ratio()
    return _mid(down.as_integer_ratio(), r), _mid(r, up.as_integer_ratio())


def _rounds_to(c, r: float) -> bool:
    """Exact certificate that r is the correctly rounded maximum real root:
    p has the sign opposite to its leading coefficient at the midpoint below
    r, and no root from the midpoint above r on (`_clear_from`)."""
    mids = _midpoints(r)
    return mids is not None and _sign_at(c, mids[0]) * c[-1] < 0 and _clear_from(c, mids[1])


def _straddles(c, r: float) -> bool:
    """`_rounds_to` for a p with at most one root, counted with multiplicity,
    above the midpoint below r: its upper test is p's leading sign at the
    midpoint above r."""
    mids = _midpoints(r)
    return mids is not None and _sign_at(c, mids[0]) * c[-1] < 0 < _sign_at(c, mids[1]) * c[-1]


def _max_root_bracket(chain):
    """Bracket (lo, hi] holding exactly the maximum real root, by bisection
    on the variation counts of one Sturm chain."""
    bound = _root_bound(chain[0])
    lo, hi = (-bound, 1), (bound, 1)
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    if v_lo == v_hi:
        raise ValueError("polynomial has no real roots")
    while v_lo - v_hi > 1:
        mid = _mid(lo, hi)
        v = _variations(chain, mid)
        if v > v_hi:
            lo, v_lo = mid, v
        else:
            hi = mid
    return lo, hi


def _bisect(s, lo, hi):
    """Halve a bracket (lo, hi] of the maximum root r of the square-free s.

    Above r the sign of s is that of its leading coefficient, and between
    the next lower root and r it is the opposite one.
    """
    mid = _mid(lo, hi)
    if _sign_at(s, mid) * s[-1] >= 0:
        return lo, mid
    return mid, hi


# -- public decision procedures -----------------------------------------


def max_real_root(p: IntPolynomial) -> float:
    """The maximum real root of p as the correctly rounded double.

    A float Newton seed is returned when `_rounds_to` certifies it exactly.
    Otherwise the root is isolated by Sturm counts, and its bracket is
    bisected by exact signs until both ends round to the same double.
    """
    if p.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    seed = _newton_seed(p.coeffs)
    if _rounds_to(p.coeffs, seed):
        return seed
    chain = _sturm_chain(p.coeffs)
    lo, hi = _max_root_bracket(chain)
    s = chain[0]
    while True:
        f_lo, f_hi = lo[0] / lo[1], hi[0] / hi[1]  # int / int rounds correctly
        if f_lo == f_hi:
            return f_hi
        if nextafter(f_lo, inf) == f_hi:
            # (lo, hi] straddles one rounding boundary t: settle r against it
            t = _mid(f_lo.as_integer_ratio(), f_hi.as_integer_ratio())
            if _le(t, lo):
                return f_hi
            side = _sign_at(s, t) * s[-1]
            if side > 0:
                return f_lo
            return f_hi if side < 0 else t[0] / t[1]
        lo, hi = _bisect(s, lo, hi)


def roots_below(p: IntPolynomial, x) -> bool:
    """True when a Descartes certificate shows every real root of p lies
    below x (a float or Fraction); False means undecided."""
    return _clear_from(p.coeffs, x.as_integer_ratio())


def _progression_signs(first: list[IntPolynomial], count: int, x) -> list[int] | None:
    """The sign that each coefficient of b^d * p_k(t + a/b) times the leading
    coefficient keeps for every k < count, constant term first, for x =
    (a, b), given p_0, p_1, p_2 of a progression whose coefficients are
    quadratic in k. `_shift` is linear, so each such coefficient times its
    sign s at k = 0 is f(k) = e0 + k*d1 + C(k, 2)*d2, > 0 on 0..count-1 when
    it is at both ends and, for convex f, at its least integer point
    -(d1 // d2). None when a sign is not shown or the leads or sizes differ."""
    lead, size = first[0].coeffs[-1], len(first[0].coeffs)
    if any(p.coeffs[-1] != lead or len(p.coeffs) != size for p in first):
        return None
    last, signs = count - 1, []
    for f0, f1, f2 in zip(*(_shift(p.coeffs, (-x[0], x[1])) for p in first)):
        s = lead if lead * f0 > 0 else -lead
        e0, d1, d2 = s * f0, s * (f1 - f0), s * (f2 - 2 * f1 + f0)
        ends = {0, last, min(max(-(d1 // d2), 0), last)} if d2 > 0 else {0, last}
        if any(e0 + k * d1 + k * (k - 1) // 2 * d2 <= 0 for k in ends):
            return None
        signs.append(1 if s == lead else -1)
    return signs


def progression_below(first: list[IntPolynomial], count: int, x) -> bool:
    """`roots_below(p_k, x)` for every k < count at once, where `first` is
    p_0, p_1, p_2 (all of them when count < 3) and each coefficient of p_k
    is a quadratic in k: every shifted coefficient keeps the leading sign
    (`_progression_signs`). False means undecided."""
    if count < 3:
        return all(roots_below(p, x) for p in first)
    signs = _progression_signs(first, count, x.as_integer_ratio())
    return signs is not None and min(signs) > 0


def progression_max_roots(family: list[IntPolynomial]) -> list[float]:
    """`[max_real_root(p) for p in family]`, each coefficient of p_k quadratic
    in k. When the Newton seeds are finite and `_progression_signs` shows
    from p_0, p_1, p_2 that every shifted p_k(t + u), t = floor(min seed) - 1,
    has one sign pattern with one change, Descartes' rule leaves each p_k one
    root above t, and `_straddles` certifies its seed. A refused family or
    seed goes to `max_real_root`, which seeds it again."""
    if any(p.degree < 1 for p in family):
        raise ValueError("polynomial must be nonconstant")
    seeds = [_newton_seed(p.coeffs) for p in family]
    signs = None
    if len(family) > 2 and all(map(isfinite, seeds)):
        signs = _progression_signs(family[:3], len(family), (floor(min(seeds)) - 1, 1))
    single = signs is not None and sum(a != b for a, b in zip(signs, signs[1:])) == 1
    return [r if single and _straddles(p.coeffs, r) else max_real_root(p) for p, r in zip(family, seeds)]


def compare_max_real_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact three-way comparison of the maximum real roots of p and q."""
    chain_p, chain_q = _sturm_chain(p.coeffs), _sturm_chain(q.coeffs)
    bp, bq = _max_root_bracket(chain_p), _max_root_bracket(chain_q)
    a, b = sorted((p.coeffs, q.coeffs), key=len, reverse=True)
    shared = _prs(a, b)[-1]
    if len(shared) > 1:
        # a bracketed maximum root is a common root iff the gcd has a root
        # in its bracket; a common root of p is at most the maximum of q
        chain_g = _sturm_chain(shared)
        p_common = _variations(chain_g, bp[0]) > _variations(chain_g, bp[1])
        q_common = _variations(chain_g, bq[0]) > _variations(chain_g, bq[1])
        if p_common or q_common:
            return q_common - p_common
    # the maxima differ: bisect both brackets until they separate
    while True:
        if _le(bp[1], bq[0]):
            return -1
        if _le(bq[1], bp[0]):
            return 1
        bp = _bisect(chain_p[0], *bp)
        bq = _bisect(chain_q[0], *bq)
