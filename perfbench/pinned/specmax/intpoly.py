"""Exact univariate polynomial machinery over the integers/rationals.

Provides integer characteristic polynomials of small matrices, Sturm
sequences over exact rationals, real-root counting and isolation, and the
sign decisions used throughout the verification suites: nonnegativity of a
polynomial on an interval or half-line, ordering of maximum real roots,
and shifted-root comparisons.  Floating point never enters these
decisions; it is used only to report located roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial; coeffs run constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        m = max(len(a), len(b))
        return IntPolynomial(
            tuple(
                (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(m)
            )
        )

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        m = max(len(a), len(b))
        return IntPolynomial(
            tuple(
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(m)
            )
        )

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @staticmethod
    def from_json(data) -> "IntPolynomial":
        return IntPolynomial(tuple(int(c) for c in data))


@dataclass(frozen=True)
class RootBracket:
    """Half-open interval (lo, hi] expected to hold the maximum real root."""

    lo: Fraction
    hi: Fraction
    which: str = "max"

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got ({self.lo}, {self.hi}]")


# -- characteristic polynomial ------------------------------------------


def char_poly(matrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(lambda*I - M).

    Accepts a square matrix of ints (or integral Fractions).  Uses the
    trace recursion M_k = M(M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k, whose
    divisions are exact over the integers.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = [[_as_int(x) for x in r] for r in rows]
    work = [row[:] for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        if k > 1:
            work = _matmul(a, work)
        tr = sum(work[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ArithmeticError("non-integer trace division in char_poly")
        ck = q
        coeffs[n - k] = ck
        for i in range(n):
            work[i][i] += ck
    return IntPolynomial(tuple(coeffs))


def _as_int(x) -> int:
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"matrix entry {x} is not an integer")
    return f.numerator


def _matmul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


# -- rational coefficient helpers ---------------------------------------

_POS_INF = object()
_NEG_INF = object()


def _frac(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _eval(c: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _deriv(c: list[Fraction]) -> list[Fraction]:
    return [c[i] * i for i in range(1, len(c))]


def _divmod(a: list[Fraction], b: list[Fraction]):
    b = _trim(b[:])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _trim(a[:])
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(0, len(rem) - db)
    while rem and len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        f = rem[-1] / lead
        quot[shift] = f
        for i in range(len(b)):
            rem[shift + i] -= f * b[i]
        rem.pop()
        rem = _trim(rem)
    return _trim(quot), rem


def _shift(c: list[Fraction], s: Fraction) -> list[Fraction]:
    """Coefficients of p(x + s), exactly (synthetic Taylor shift)."""
    out = [Fraction(v) for v in c]
    m = len(out)
    for i in range(m - 1):
        for j in range(m - 2, i - 1, -1):
            out[j] += s * out[j + 1]
    return out


def _sturm_chain(c: list[Fraction]) -> list[list[Fraction]]:
    p0 = _trim(c[:])
    if not p0:
        return []
    chain = [p0]
    p1 = _trim(_deriv(p0))
    if p1:
        chain.append(p1)
        while True:
            _, rem = _divmod(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-v for v in rem])
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _variations_at(chain, x) -> int:
    if x is _POS_INF:
        return _variations([_sign(p[-1]) for p in chain])
    if x is _NEG_INF:
        return _variations(
            [_sign(p[-1]) * (-1 if (len(p) - 1) % 2 else 1) for p in chain]
        )
    return _variations([_sign(_eval(p, x)) for p in chain])


def _deflate_root(c: list[Fraction], r: Fraction) -> tuple[list[Fraction], int]:
    """Divide out (x - r) as often as it divides; return (quotient, multiplicity)."""
    mult = 0
    cur = _trim(c[:])
    while cur and _eval(cur, r) == 0:
        out = []
        acc = Fraction(0)
        for v in reversed(cur):
            acc = acc * r + v
            out.append(acc)
        # out holds the synthetic-division accumulators; last is the remainder (0)
        quot = list(reversed(out[:-1]))
        cur = _trim(quot)
        mult += 1
    return cur, mult


def count_roots(p: IntPolynomial, lo, hi) -> int:
    """Number of distinct real roots of p in (lo, hi]; endpoints may be roots.

    lo may be None for -infinity, hi None for +infinity.
    """
    if p.is_zero:
        raise ValueError("count_roots of the zero polynomial")
    if lo is not None and hi is not None and not Fraction(lo) < Fraction(hi):
        raise ValueError(f"count_roots needs lo < hi, got ({lo}, {hi}]")
    c = _frac(p)
    at_hi = 0
    if hi is not None:
        hi = Fraction(hi)
        c, m = _deflate_root(c, hi)
        at_hi = 1 if m else 0
    if lo is not None:
        lo = Fraction(lo)
        c, _ = _deflate_root(c, lo)
    c = _trim(c)
    if len(c) <= 1:
        return at_hi
    chain = _sturm_chain(c)
    va = _variations_at(chain, _NEG_INF if lo is None else lo)
    vb = _variations_at(chain, _POS_INF if hi is None else hi)
    return va - vb + at_hi


def _cauchy_bound(c: list[Fraction]) -> Fraction:
    lead = abs(c[-1])
    return 1 + max(abs(v) for v in c) / lead


def _nonroot_point(c: list[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """A rational in (a, b) where the polynomial does not vanish."""
    deg = len(c) - 1
    for k in range(1, deg + 3):
        x = a + (b - a) * Fraction(k, deg + 3)
        if _eval(c, x) != 0:
            return x
    raise ArithmeticError("could not find non-root sample point")


def _isolate_in(chain, c, a: Fraction, b: Fraction, k: int) -> list:
    """Split (a, b] into k sub-intervals each holding one distinct root."""
    if k == 0:
        return []
    if k == 1:
        return [(a, b)]
    mid = _nonroot_point(c, a, b)
    va = _variations_at(chain, a)
    vm = _variations_at(chain, mid)
    kl = va - vm
    return _isolate_in(chain, c, a, mid, kl) + _isolate_in(chain, c, mid, b, k - kl)


def _nonneg_on(c: list[Fraction], lo: Fraction, hi) -> bool:
    """Exact decision: p(x) >= 0 for all x in [lo, hi] ([lo, inf) if hi None)."""
    c = _trim(c[:])
    if not c:
        return True
    if hi is None:
        if len(c) == 1:
            return c[0] >= 0
        if c[-1] < 0:
            return False
        # above the Cauchy bound the (positive) leading term rules, so the
        # half-line question reduces to a bounded interval
        hi = max(lo + 1, _cauchy_bound(c))
    else:
        hi = Fraction(hi)
        if not lo <= hi:
            raise ValueError("empty interval")
    if lo == hi:
        return _eval(c, lo) >= 0
    # factor out roots at the endpoints: on [lo, hi], (x-lo)^a >= 0 always,
    # while (x-hi)^b flips the interior sign when b is odd
    c, _ = _deflate_root(c, lo)
    c, m_hi = _deflate_root(c, hi)
    if m_hi % 2 == 1:
        c = [-v for v in c]
    c = _trim(c)
    if not c:
        return True
    if len(c) == 1:
        return c[0] >= 0
    # endpoints are now non-roots; sample at both endpoints and at the
    # endpoints of isolating intervals of interior roots -- every maximal
    # root-free region of [lo, hi] contains one of these points
    chain = _sturm_chain(c)
    k = _variations_at(chain, lo) - _variations_at(chain, hi)
    intervals = _isolate_in(chain, c, lo, hi, k) if k else []
    samples = [lo, hi]
    for a, b in intervals:
        if a != lo:
            samples.append(a)
        if b != hi:
            samples.append(b)
    return all(_eval(c, x) >= 0 for x in samples)


# -- public decision procedures -----------------------------------------


def max_real_root(p: IntPolynomial, bracket: RootBracket, width: float = 1e-12) -> float:
    """Locate the maximum real root of p inside a validated bracket.

    The bracket must contain exactly one distinct root in (lo, hi] and no
    root above hi (checked by Sturm counts; violations raise ValueError).
    Bisection uses exact rational sign/count evaluation.
    """
    if p.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    inside = count_roots(p, bracket.lo, bracket.hi)
    above = count_roots(p, bracket.hi, None)
    if inside != 1 or above != 0:
        raise ValueError(
            f"invalid bracket ({bracket.lo}, {bracket.hi}]: "
            f"{inside} roots inside, {above} above"
        )
    c = _frac(p)
    lo, hi = Fraction(bracket.lo), Fraction(bracket.hi)
    if _eval(c, hi) == 0:
        return float(hi)
    # strip a possible root at lo so Sturm endpoints are clean
    c, _ = _deflate_root(c, lo)
    chain = _sturm_chain(c)
    v_hi = _variations_at(chain, hi)
    target = Fraction(width)
    while hi - lo > target:
        mid = (lo + hi) / 2
        if _eval(c, mid) == 0:
            # the bracket holds a single root, so a root hit is the answer
            return float(mid)
        if _variations_at(chain, mid) - v_hi >= 1:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def isolate_max_real_root(p: IntPolynomial) -> RootBracket:
    """Bracket (lo, hi] containing exactly the maximum real root of p."""
    if p.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    c = _frac(p)
    bound = _cauchy_bound(c)
    total = count_roots(p, -bound, bound)
    if total == 0:
        raise ValueError("polynomial has no real roots")
    lo, hi = -bound, bound
    while count_roots(p, lo, hi) > 1:
        mid = _nonroot_point(c, lo, hi)
        if count_roots(p, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def refine_bracket(p: IntPolynomial, bracket: RootBracket, width: Fraction) -> RootBracket:
    """Shrink a one-root bracket below the requested width (exact bisection)."""
    c = _frac(p)
    lo, hi = bracket.lo, bracket.hi
    while hi - lo > width:
        mid = _nonroot_point(c, lo, hi)
        if count_roots(p, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def max_real_root_value(p: IntPolynomial, width: float = 1e-12) -> float:
    """Maximum real root of p located to `width` (auto-bracketed)."""
    return max_real_root(p, isolate_max_real_root(p), width)


def poly_dominates(p1: IntPolynomial, p2: IntPolynomial, from_) -> bool:
    """True iff p2(x) >= p1(x) for every x >= from_, decided exactly."""
    if p1.is_zero and p2.is_zero:
        return True
    diff = p2 - p1
    if diff.is_zero:
        return True
    return _nonneg_on(_frac(diff), Fraction(from_), None)


def shifted_root_bound(p1: IntPolynomial, p2: IntPolynomial, k, lo, hi) -> bool:
    """True iff p2(x - k) - p1(x) >= 0 on [lo, hi], decided exactly (k >= 0)."""
    k = Fraction(k)
    if k < 0:
        raise ValueError("shift k must be nonnegative")
    shifted = _shift(_frac(p2), -k)
    base = _frac(p1)
    m = max(len(shifted), len(base))
    shifted += [Fraction(0)] * (m - len(shifted))
    base += [Fraction(0)] * (m - len(base))
    diff = [a - b for a, b in zip(shifted, base)]
    if not _trim(diff[:]):
        return True
    return _nonneg_on(diff, Fraction(lo), Fraction(hi))


def _primitive_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    a, b = _frac(p), _frac(q)
    while _trim(b[:]):
        _, r = _divmod(a, b)
        a, b = b, r
    a = _trim(a)
    if not a:
        return IntPolynomial(())
    denom = 1
    for v in a:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in a]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    if ints[-1] < 0:
        content = -content
    return IntPolynomial(tuple(v // content for v in ints))


def compare_max_real_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact three-way comparison of the maximum real roots of p and q."""
    bp = isolate_max_real_root(p)
    bq = isolate_max_real_root(q)
    shared = _primitive_gcd(p, q)
    has_common = shared.degree >= 1
    while True:
        if has_common:
            # a common root inside both brackets forces equality: the only
            # p-root in bp (resp. q-root in bq) is the maximum one
            if (
                count_roots(shared, bp.lo, bp.hi) == 1
                and count_roots(shared, bq.lo, bq.hi) == 1
                and count_roots(shared, bp.hi, None) == 0
                and count_roots(shared, bq.hi, None) == 0
            ):
                # still need the two bracketed roots to be the same number
                inter_lo = max(bp.lo, bq.lo)
                inter_hi = min(bp.hi, bq.hi)
                if inter_lo < inter_hi and count_roots(shared, inter_lo, inter_hi) == 1:
                    if (
                        count_roots(p, inter_lo, inter_hi) == 1
                        and count_roots(q, inter_lo, inter_hi) == 1
                    ):
                        return 0
        if bp.hi <= bq.lo:
            return -1
        if bq.hi <= bp.lo:
            return 1
        width_p = (bp.hi - bp.lo) / 2
        width_q = (bq.hi - bq.lo) / 2
        bp = refine_bracket(p, bp, width_p)
        bq = refine_bracket(q, bq, width_q)
