"""Constructors for the extremal graph families and their named quotient
matrices with closed-form integer characteristic polynomials.

Labeling conventions (documented per constructor) put each family's
canonical partition on contiguous index ranges.  Every family graph has
maximum degree n-2 or n-3, so each builder lists the edges of its sparse
complement and returns the complement of that.  Matchings deleted from a
complete block always pair consecutive labels: (first, second),
(third, fourth), ...  H1(n), H2(n) and G2,1(n) are complement profiles of
one low vertex, rows of `PROFILE_FAMILIES` that `build_family` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graphs import MAX_N, CapabilityError, Graph, strict_int
from .intpoly import IntPolynomial, char_poly


@dataclass(frozen=True)
class ComplementProfile:
    """Multiset of components of the complement of G-u (or G-u-v).

    type1: number of components that are a single edge with both ends
           among the full-degree vertices outside N(u).
    type2: per-path interior vertex counts (each >= 1); a path has two
           endpoint vertices outside N(u) and its interior inside N(u).
    type3: cycle lengths (each >= 3), all vertices inside N(u).
    """

    type1: int = 0
    type2: tuple[int, ...] = ()
    type3: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "type1", strict_int(self.type1))
        object.__setattr__(self, "type2", tuple(map(strict_int, self.type2)))
        object.__setattr__(self, "type3", tuple(map(strict_int, self.type3)))
        if self.type1 < 0:
            raise ValueError("type1 count must be nonnegative")
        if any(k < 1 for k in self.type2):
            raise ValueError("type2 paths need at least one interior vertex")
        if any(k < 3 for k in self.type3):
            raise ValueError("type3 cycles need length >= 3")

    @property
    def inner_vertices(self) -> int:
        return sum(self.type2) + sum(self.type3)

    @property
    def outer_vertices(self) -> int:
        return 2 * (self.type1 + len(self.type2))

    def to_json(self) -> dict:
        return {
            "type1": self.type1,
            "type2": list(self.type2),
            "type3": list(self.type3),
        }

    @staticmethod
    def from_json(data) -> "ComplementProfile":
        """Parse the JSON form: an object with an integer `type1` and integer
        lists `type2` and `type3`, each optional. Anything else, unknown keys
        included, raises ValueError."""
        if not isinstance(data, dict) or not data.keys() <= {"type1", "type2", "type3"}:
            raise ValueError("malformed profile: want an object with keys among type1, type2, type3")
        if not all(isinstance(data.get(key, []), list) for key in ("type2", "type3")):
            raise ValueError("malformed profile: type2 and type3 must be lists")
        try:
            return ComplementProfile(data.get("type1", 0), data.get("type2", ()), data.get("type3", ()))
        except TypeError as exc:
            raise ValueError(f"malformed profile: {exc}") from None


@dataclass(frozen=True)
class NamedQuotient:
    """Integer quotient matrix with its closed-form characteristic polynomial."""

    delta: int | None
    matrix: tuple[tuple[int, ...], ...]
    closed_form: IntPolynomial


FAMILY_TAGS = ("g", "h1", "h2", "g21", "profile", "gdd", "gd1")
# tag -> (delta, least order, complement profile at order n) of the families
# with one vertex of degree delta and all others of degree n-3; n has the
# parity of the least order. H1: N(u) is one vertex, the interior of the one
# path; H2: two adjacent ones, each the interior of a path; G2,1: two
# nonadjacent ones, the interior of one path
PROFILE_FAMILIES = {
    "h1": (1, 8, lambda n: ComplementProfile((n - 4) // 2, (1,))),
    "h2": (2, 9, lambda n: ComplementProfile((n - 7) // 2, (1, 1))),
    "g21": (2, 9, lambda n: ComplementProfile((n - 5) // 2, (2,))),
}


def _require_order(n: int) -> None:
    """Refuse, before any edge is listed, an order above MAX_N."""
    if n > MAX_N:
        raise CapabilityError(f"family graphs capped at n={MAX_N}")


def build_family(tag: str, n: int, delta: int | None = None, profile: ComplementProfile | None = None) -> Graph:
    """The order-n graph of a family tag in FAMILY_TAGS. g, profile, gdd
    and gd1 need delta; profile needs a complement profile, and gdd and gd1
    default theirs to one (delta-1)-cycle and to (delta-1)//2 type-1 edges."""
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {tag!r}; use one of {FAMILY_TAGS}")
    _require_order(n)
    if tag in PROFILE_FAMILIES:
        delta, least, profile = PROFILE_FAMILIES[tag]
        if n < least or (n - least) % 2:
            raise ValueError(f"{tag} needs {('even', 'odd')[least % 2]} n >= {least}, got {n}")
        _, inner, ends, block = profile_family_partition(tag, n)
        return _profile_graph(n, profile(n), inner, block + ends)
    if delta is None:
        raise ValueError(f"{tag} needs delta")
    if tag == "g":
        return build_g(n, delta)
    if tag == "gdd":
        if profile is None and delta < 4:
            raise ValueError(
                f"gdd's default profile, one (delta-1)-cycle, needs delta >= 4, got {delta}; give --profile"
            )
        return build_case2(n, delta, delta, profile or ComplementProfile(type3=(delta - 1,)))
    if tag == "gd1":
        if profile is None and delta < 1:
            raise ValueError(
                f"gd1's default profile, (delta-1)//2 type-1 edges, needs delta >= 1, got {delta}; give --profile"
            )
        return build_case2(n, delta, 1, profile or ComplementProfile(type1=(delta - 1) // 2))
    if profile is None:
        raise ValueError("profile needs a complement profile")
    return build_from_profile(n, delta, profile)


def profile_family_partition(tag: str, n: int) -> list[list[int]]:
    """The equitable partition of a PROFILE_FAMILIES graph at order n, in
    `build_family`'s labels: u=0; N(u)=1..delta, the path interiors; the
    path endpoints; the matched block of the type-1 edges, labelled last."""
    delta, _, profile = PROFILE_FAMILIES[tag]
    ends = delta + 1 + 2 * len(profile(n).type2)
    return [[0], list(range(1, delta + 1)), list(range(delta + 1, ends)), list(range(ends, n))]


def _matching(lo: int, hi: int) -> list[tuple[int, int]]:
    """The consecutive matching (lo, lo+1), (lo+2, lo+3), ... within lo..hi-1."""
    return [(v, v + 1) for v in range(lo, hi - 1, 2)]


# -- single low-degree-vertex family for maximum degree n-2 --------------


def build_g(n: int, t: int) -> Graph:
    """Family graph with degree sequence (n-2, ..., n-2, t).

    Labels: 0 = the low-degree vertex u; 1..t = complete block minus a
    perfect matching, fully joined to u; t+1..n-1 = complete block, fully
    joined to the middle block.
    """
    if n < 5:
        raise ValueError(f"build_g needs n >= 5, got {n}")
    if t % 2 != 0:
        raise ValueError(f"matched-block size t={t} must be even")
    if not 2 <= t <= n - 3:
        raise ValueError(f"t={t} outside [2, n-3] for n={n}")
    non_edges = [(0, v) for v in range(t + 1, n)] + _matching(1, t + 1)
    return Graph.build(n, non_edges).complement()


def g_partition(n: int, t: int) -> list[list[int]]:
    return [[0], list(range(1, t + 1)), list(range(t + 1, n))]


# -- complement-profile constructions --------------------------------------


def build_from_profile(n: int, delta: int, profile: ComplementProfile) -> Graph:
    """Graph with one vertex of degree delta, all others of degree n-3,
    whose complement of G-u realizes exactly the given profile.

    Labels: u=0; N(u)=1..delta holds path interiors first (in profile
    order) then cycles; the rest delta+1..n-1 holds type-1 edge pairs
    first, then path endpoint pairs in profile order.
    """
    _require_order(n)
    if n % 2 == 0:
        if delta % 2 == 0:
            raise ValueError(f"delta must be odd for even n (got {delta}, n={n})")
    elif delta % 2 != 0:
        raise ValueError(f"delta must be even for odd n (got {delta}, n={n})")
    if not 1 <= delta <= n - 5:
        raise ValueError(f"delta={delta} outside [1, n-5] for n={n}")
    return _profile_graph(n, profile, list(range(1, delta + 1)), list(range(delta + 1, n)))


def _profile_graph(n: int, profile: ComplementProfile, inner: list[int], outer: list[int]) -> Graph:
    """The order-n graph whose vertex 0 misses exactly `outer` and whose
    other non-edges realize the profile, consuming `inner` (N(u)) and
    `outer` in order."""
    non_edges = [(0, v) for v in outer]
    non_edges += _profile_complement_edges(profile, inner, outer, ("delta", "n-delta-1"))
    return Graph.build(n, non_edges).complement()


def _profile_complement_edges(profile, inner, outer, names):
    """Complement edges realizing the profile on given label pools; a
    profile that does not use up both pools raises ValueError, naming
    them by `names`."""
    if profile.inner_vertices != len(inner):
        raise ValueError(
            f"profile consumes {profile.inner_vertices} interior vertices, needs {names[0]}={len(inner)}"
        )
    if profile.outer_vertices != len(outer):
        raise ValueError(
            f"profile consumes {profile.outer_vertices} outer vertices, needs {names[1]}={len(outer)}"
        )
    anti = []
    oi = 0
    for _ in range(profile.type1):
        anti.append((outer[oi], outer[oi + 1]))
        oi += 2
    ii = 0
    for k in profile.type2:
        path = [outer[oi]] + inner[ii : ii + k] + [outer[oi + 1]]
        oi += 2
        ii += k
        anti += list(zip(path, path[1:]))
    for k in profile.type3:
        cyc = inner[ii : ii + k]
        ii += k
        anti += list(zip(cyc, cyc[1:])) + [(cyc[-1], cyc[0])]
    return anti


def build_case2(n: int, du: int, dv: int, profile: ComplementProfile) -> Graph:
    """Graph with two low-degree vertices u, v and all others of degree n-3.

    Labels: u=0, v=1 (adjacent); common neighborhood 2..dv holds the
    profile's interior vertices; u-only neighbors and non-neighbors follow.
    The complement of G-u-v realizes the profile: type-1 edges and path
    endpoints sit on u-only/non-common vertices, interiors and cycles in
    the common neighborhood.  Requires du - dv even (degree-sum parity).
    """
    if (du - dv) % 2 != 0:
        raise ValueError(f"du-dv={du - dv} must be even")
    if not 1 <= dv <= du <= n - 4:
        raise ValueError(f"(du, dv)=({du},{dv}) outside 1 <= dv <= du <= n-4")
    t1 = dv - 1
    t2 = du - dv
    t3 = n - 2 - t1 - t2
    if t3 < 3:
        raise ValueError(f"requires at least 3 full-degree non-neighbors, got {t3}")
    common = list(range(2, 2 + t1))
    uonly = list(range(2 + t1, 2 + t1 + t2))
    rest = list(range(2 + t1 + t2, n))
    non_edges = [(0, v) for v in rest] + [(1, v) for v in uonly + rest]
    non_edges += _profile_complement_edges(profile, common, uonly, ("dv-1", "du-dv"))
    return Graph.build(n, non_edges).complement()


# -- named quotient matrices ------------------------------------------------


# which -> (matrix, closed form coefficients) at (n, delta). Every matrix entry is affine in
# (n, delta), so each char_poly coefficient has degree <= FORM_DEGREE = 4 in each variable, as
# has each closed-form coefficient: their difference is zero once it vanishes on a 5 x 5 grid,
# and a coefficient's third difference in delta, of degree <= 4 in n and <= 1 in delta, once it
# vanishes on a 5 x 2 grid. Then the coefficient has degree <= 2 in delta.
FORM_DEGREE = 4
_FORMS = {
    "A_delta": lambda n, d: (((0, d, 0), (1, d - 2, n - d - 1), (0, d, n - d - 2)),
                             (-(d * d + 2 * d - n * d), 4 - 2 * n, 4 - n, 1)),
    "B1": lambda n, d: (((0, 1, 0, 0), (1, 0, 0, n - 4), (0, 0, 1, n - 4), (0, 1, 2, n - 6)),
                        (n - 2, 2 * n - 9, 5 - 2 * n, 5 - n, 1)),
    "B2": lambda n, d: (((0, 2, 0, 0), (1, 1, 2, n - 7), (0, 1, 3, n - 7), (0, 2, 4, n - 9)),
                        (2 * n - 2, 3 * n - 17, 5 - 2 * n, 5 - n, 1)),
    "B_delta": lambda n, d: (((0, d, 0), (1, d - 3, n - d - 1), (0, d, n - d - 3)),
                             (-d * d + (n - 3) * d, 9 - 3 * n, 6 - n, 1)),
    "B_n5": lambda n, d: (((0, n - 7, 2, 0), (1, n - 10, 2, 4), (1, n - 7, 1, 2), (0, n - 7, 1, 3)),
                          (5 * n - 17, 3 * n - 18, 8 - 3 * n, 6 - n, 1)),
    "B_dd": lambda n, d: (((1, d - 1, 0), (2, d - 4, n - d - 1), (0, d - 1, n - d - 2)),
                          (-2 * d * d + (2 * n - 4) * d + n - 3, 3 - 2 * n, 5 - n, 1)),
    "B_d1": lambda n, d: (((0, 1, 0, 0), (1, 0, d - 1, 0), (0, 1, d - 3, n - d - 1), (0, 0, d - 1, n - d - 2)),
                          (2 * n - d - 5, -d * d + d * n - d - 3, 5 - 2 * n, 5 - n, 1)),
}
_GRID = [(n, d) for n in range(FORM_DEGREE + 1) for d in range(FORM_DEGREE + 1)]
# which -> (least n, delta as a function of n) for the quotients of fixed delta
FIXED_DELTA = {"B1": (6, lambda n: 1), "B2": (9, lambda n: 2), "B_n5": (10, lambda n: n - 5)}
# which -> (least delta, n minus the largest delta, even delta required, the least
# delta and the step of the progression the order-n table lists)
_DELTA_RANGE = {
    "A_delta": (2, 3, True, lambda n: (2, 2)),
    # the single-low-vertex degree is odd for even n, even for odd n
    "B_delta": (3, 5, False, lambda n: (3 + n % 2, 2)),
    "B_dd": (4, 4, False, lambda n: (4, 1)),
    "B_d1": (3, 4, False, lambda n: (3, 2)),
}


def _grid_mismatches(form) -> list[tuple[int, int]]:
    """The (n, delta) of the 5 x 5 grid where char_poly of form's matrix
    differs from its closed form; an empty list proves the form everywhere."""
    return [(n, d) for n, d in _GRID if char_poly(form(n, d)[0]) != IntPolynomial(form(n, d)[1])]


def _cubic_points(form) -> list[tuple[int, int]]:
    """The (n, delta) of the 5 x 2 grid where a closed-form coefficient has a
    nonzero third difference in delta; an empty list proves each coefficient
    quadratic in delta everywhere."""
    thirds = ((n, d, zip(*(form(n, d + i)[1] for i in (3, 2, 1, 0)))) for n, d in _GRID if d < 2)
    return [(n, d) for n, d, coeffs in thirds if any(a - 3 * b + 3 * c - e for a, b, c, e in coeffs)]


@cache
def _prove_closed_form(which: str) -> None:
    if bad := _grid_mismatches(_FORMS[which]):
        raise AssertionError(f"closed-form mismatch for {which} at (n, delta) in {bad}")
    if bad := _cubic_points(_FORMS[which]):
        raise AssertionError(f"closed form of {which} is not quadratic in delta at (n, delta) in {bad}")


def named_quotient(which: str, n: int, delta: int | None = None) -> NamedQuotient:
    """Integer quotient matrix plus its closed-form characteristic polynomial.

    The closed form is certified at every (n, delta): on first use of each
    name, char_poly is compared with it on a 5 x 5 grid (see `_FORMS`), and
    a mismatch raises AssertionError, as does a coefficient of degree above
    2 in delta. B1 and B2 are the quotients of H1 (even n) and H2 (odd n);
    both are returned at either parity, since the sign table and the
    closing identities use each form at every order.
    """
    if which in FIXED_DELTA:
        least, fixed = FIXED_DELTA[which]
        if n < least:
            raise ValueError(f"{which} needs n >= {least}, got {n}")
        delta = fixed(n)
    elif which in _DELTA_RANGE:
        if delta is None:
            raise ValueError(f"{which} requires delta")
        delta = int(delta)
        least, gap, even, _ = _DELTA_RANGE[which]
        if not (least <= delta <= n - gap and (delta % 2 == 0 or not even)):
            parity = "even " if even else ""
            raise ValueError(f"{which} needs {parity}delta in [{least}, n-{gap}], got {delta}, n={n}")
    else:
        raise ValueError(f"unknown quotient name {which!r}; use one of {tuple(_FORMS)}")
    _prove_closed_form(which)
    matrix, coeffs = _FORMS[which](n, delta)
    return NamedQuotient(delta, matrix, IntPolynomial(coeffs))


# `compare-families` lists O(n) parameter values per order, their roots certified
# a family's progression at a time: at n = 20000 one order takes about 0.7-1.2 s
# and 57 MB on a 2-core machine; `theorem-n3` decides each progression at once
QUOTIENT_MAX_N = 20000


def check_quotient_order(n: int) -> None:
    """Refuse, before any parameter value is listed, an order above
    QUOTIENT_MAX_N."""
    if n > QUOTIENT_MAX_N:
        raise CapabilityError(f"quotient tables capped at n={QUOTIENT_MAX_N}")


def admissible_deltas(which: str, n: int) -> range:
    """Parity-correct parameter values for a named quotient at order n, an
    arithmetic progression."""
    check_quotient_order(n)
    if which in FIXED_DELTA:
        return range(0)
    if which not in _DELTA_RANGE:
        raise ValueError(f"unknown quotient name {which!r}")
    _, gap, _, listed = _DELTA_RANGE[which]
    first, step = listed(n)
    return range(first, n - gap + 1, step)
