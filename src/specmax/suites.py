"""Verification suites and family tables: every check behind a verdict.

Each `run_*` suite returns the JSON-ready result that `specmax verify`
prints. Signs, theorem-n2, theorem-n3 and lemmas list their failures as
records `{"check": name, "n": order or None, "witness": ...}`; sandwich
makes one check and reports its margins instead. Every lemma check is
decided here, by a `*_verdicts` function that returns `(check, holds,
witness)` triples, and `failure_records` turns the triples that fail
into records; `switching`, `spectral`, `partition` and `enumeration`
rewrite, solve, count and search, and decide no check. A verdict function
solves nothing: it is handed the Perron pairs, spectral radii and quotients
it reads, which the suites build with `quotient` and solve with
`perron_all`, `spectral_radii` and `quotient_radii`, a round or a family
table at a time. The suites and the tests call the same verdict functions,
the tests with their own inputs.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations, islice
from math import inf, nextafter, sqrt

from .enumeration import EXHAUSTIVE_MAX_N, EnumSpec, extremal_search
from .families import (
    FIXED_DELTA,
    FORM_DEGREE,
    ComplementProfile,
    admissible_deltas,
    build_case2,
    build_family,
    build_from_profile,
    build_g,
    check_quotient_order,
    g_partition,
    named_quotient,
    profile_family_partition,
)
from .graphs import Graph, canonical_form, graph6_encode, random_connected_graph
from .intpoly import IntPolynomial, compare_max_real_roots, max_real_root, progression_below, progression_max_roots
from .intpoly import roots_below, scaled_value
from .partition import quotient
from .spectral import ROUND, PerronPair, perron, perron_all, quotient_radii, spectral_radii
from .switching import SwitchMove, apply


def failure_records(n: int | None, verdicts) -> list[dict]:
    """The record `{"check", "n", "witness"}` of each `(check, holds,
    witness)` verdict that does not hold."""
    return [{"check": check, "n": n, "witness": witness} for check, holds, witness in verdicts if not holds]


# -- named quotient tables -------------------------------------------------


def _named_families(n: int) -> list[tuple[str, str, range | list]]:
    """(table, family, deltas) of every named quotient family in the order-n
    tables, a fixed-delta name with its one delta; the n3 table starts with
    its winner, B1 or B2."""
    names = [("n2", "A_delta")]
    if n >= 59:
        winner = "B1" if n % 2 == 0 else "B2"
        names += [("n3", name) for name in (winner, "B_n5", "B_delta", "B_dd", "B_d1")]
    return [
        (table, name, [FIXED_DELTA[name][1](n)] if name in FIXED_DELTA else admissible_deltas(name, n))
        for table, name in names
    ]


def _assert_strictly_larger(n: int, winner: IntPolynomial, families: list[tuple[str, range | list]]) -> list[str]:
    """Exact check that winner's max real root beats every closed form of
    each (name, deltas) family at order n, deltas [None] for a fixed-delta
    name.

    The separator is the double just below the winner's root: the root is
    strictly above it because `max_real_root` rounds correctly. A
    progression of delta that `progression_below` puts below the separator
    loses (each closed-form coefficient is quadratic in delta, as
    `named_quotient` proves); one it does not is halved, down to three
    members. Each member of those that the Descartes certificate puts below
    the separator loses, and any other is compared with the winner exactly.
    Returns the names of violators (empty when all pass), in delta order.
    """
    winner_root = max_real_root(winner)
    sep = nextafter(winner_root, -inf)
    bad = []
    todo = families[::-1]
    while todo:
        family, deltas = todo.pop()
        if progression_below([named_quotient(family, n, d).closed_form for d in deltas[:3]], len(deltas), sep):
            continue
        if len(deltas) > 3:
            todo += [(family, deltas[len(deltas) // 2 :]), (family, deltas[: len(deltas) // 2])]
            continue
        for d in deltas:
            poly = named_quotient(family, n, d).closed_form
            if roots_below(poly, sep) or compare_max_real_roots(poly, winner) < 0:
                continue
            name = family if d is None else f"{family}({d})"
            bad.append(f"{name}: root {max_real_root(poly):.12f} !< {winner_root:.12f}")
    return bad


# -- verify: signs --------------------------------------------------------

# the two printed 1/n expansions, coefficients of 1/n^0, 1/n^1, ...
F2_T1_SERIES = IntPolynomial((-3, -35, 244, 52, -969, -194, 2076, 718, -2789, -1995, 1400, 2000, 625))
G_T1_SERIES = IntPolynomial((1, -62, 190, 172, -817, -420, 1750, 808, -2489, -1870, 1400, 2000, 625))


# the rational points a(n)/b(n), a and b polynomials in n, constant term first
_T1 = (IntPolynomial((5, 4, -2, -3, 1)), IntPolynomial((0, 0, 0, 1)))  # n - 3 - 2/n + 4/n^2 + 5/n^3
_T2 = (IntPolynomial((0, 1)), IntPolynomial((2,)))  # n/2
_T3 = (IntPolynomial(()), IntPolynomial((1,)))  # 0
_T4 = (IntPolynomial((-4, -2, -1)), IntPolynomial((0, 0, 1)))  # -1 - 2/n - 4/n^2
_N3 = (IntPolynomial((-3, 1)), IntPolynomial((1,)))  # n - 3
_ZERO = IntPolynomial(())

# (check, expected sign, named quotient, (a, b), q), a, b and q polynomials in n: b^4 * p(a/b)
# - q has the expected sign, p the quotient's closed form at order n. q is 0 for a sign check;
# an identity scales both sides by b^4 and has sign 0.
_SIGN_ROWS = [
    ("g(t4)<0", -1, "B_n5", _T4, _ZERO),
    ("g(t3)>0", 1, "B_n5", _T3, _ZERO),
    ("g(t2)<0", -1, "B_n5", _T2, _ZERO),
    ("g(t1)>0", 1, "B_n5", _T1, _ZERO),
    ("f2(t1)<0", -1, "B2", _T1, _ZERO),
    ("f2(n-3)>0", 1, "B2", _N3, _ZERO),
    ("g(n-3)>0", 1, "B_n5", _N3, _ZERO),
    # n^12 times the 1/n expansion, a degree-12 polynomial in n
    ("f2(t1) expansion", 0, "B2", _T1, IntPolynomial(F2_T1_SERIES.coeffs[::-1])),
    ("g(t1) expansion", 0, "B_n5", _T1, IntPolynomial(G_T1_SERIES.coeffs[::-1])),
    # 16 * (-n^4/16 + 7n^2/2 - 4n - 17)
    ("g(t2) closed form", 0, "B_n5", _T2, IntPolynomial((-272, -64, 56, 0, -1))),
]

# a bound on each row's degree in n, checked by `_prove_sign_degrees`
SIGN_DEGREE = 20


def _sign_table(n: int) -> list[tuple[str, int, IntPolynomial, tuple[int, int], int]]:
    """(check, expected sign, p, (a, b), q) of each row of `_SIGN_ROWS` at order n."""
    forms = {name: named_quotient(name, n).closed_form for name in ("B_n5", "B2")}

    def at(poly):
        return scaled_value(poly.coeffs, (n, 1))

    return [(check, sign, forms[name], (at(a), at(b)), at(q)) for check, sign, name, (a, b), q in _SIGN_ROWS]


def _prove_sign_degrees() -> None:
    """Raise AssertionError unless each row's V(n) = b^4 * p(a/b) - q has
    degree at most SIGN_DEGREE in n. For p = sum_i c_i t^i of degree d,
    b^4 * p(a/b) = sum_i c_i a^i b^(d-i), and each c_i has degree at most
    FORM_DEGREE in n (`families._FORMS`)."""
    for check, _, name, (a, b), q in _SIGN_ROWS:
        d = named_quotient(name, 59).closed_form.degree
        if max(FORM_DEGREE + d * max(a.degree, b.degree), q.degree) > SIGN_DEGREE:
            raise AssertionError(f"sign row {check} may have degree above {SIGN_DEGREE} in n")


def _sign_verdict(check, sign, p, point, q):
    value = scaled_value(p.coeffs, point) - q
    ok = (value > 0) - (value < 0) == sign
    return check, ok, "" if ok else str(Fraction(value, point[1] ** p.degree))


def _holds_onward(rows) -> bool:
    """Certificate that one sign-table row holds at every n >= n_min, given
    the row at n_min, ..., n_min + SIGN_DEGREE + 1: its forward differences
    Δ^j V(n_min) end in a zero (the degree bound) and either all have the
    expected sign, the first strictly, or all vanish for an identity. Then
    V(n_min + k) = sum_j Δ^j V(n_min) C(k, j) with every C(k, j) >= 0."""
    sign = rows[0][1]
    diffs = [scaled_value(p.coeffs, point) - q for _, _, p, point, q in rows]
    heads = []
    while diffs:
        heads.append(diffs[0])
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    if heads[-1]:
        return False
    if sign:
        return sign * heads[0] > 0 and all(sign * h >= 0 for h in heads)
    return not any(heads)


def run_verify_signs(n_min: int = 59, n_max: int = 500) -> dict:
    """Exact sign table of the quartic comparisons at the four rational
    evaluation points, for every n in [n_min, n_max].

    Each row is settled once, for every n >= n_min, by `_holds_onward` on
    its values at n_min, ..., n_min + SIGN_DEGREE + 1, which rests on the
    degree bound `_prove_sign_degrees` checks. A row that is not certified
    is evaluated at each n; the failure records come in n-major order."""
    if not 59 <= n_min <= n_max:
        raise ValueError("signs suite needs 59 <= n_min <= n_max")
    check_quotient_order(n_max)
    _prove_sign_degrees()
    tables = [_sign_table(n) for n in range(n_min, n_min + SIGN_DEGREE + 2)]
    open_rows = [i for i, rows in enumerate(zip(*tables)) if not _holds_onward(rows)]
    failures = []
    for n in range(n_min, n_max + 1) if open_rows else ():
        table = _sign_table(n)
        failures += failure_records(n, [_sign_verdict(*table[i]) for i in open_rows])
    return {
        "suite": "signs",
        "n_min": n_min,
        "n_max": n_max,
        "checks_per_n": len(tables[0]),
        "failures": failures,
        "pass": not failures,
    }


# -- compare families -----------------------------------------------------


def family_table(n: int) -> list[dict]:
    """Rows (table, family, delta, rho) for every admissible named quotient,
    each family's roots from one `progression_max_roots` call."""
    rows = []
    for table, family, deltas in _named_families(n):
        radii = progression_max_roots([named_quotient(family, n, d).closed_form for d in deltas])
        rows += [{"table": table, "family": family, "delta": d, "rho": rho, "n": n} for d, rho in zip(deltas, radii)]
    rows.sort(key=lambda r: (r["table"], -r["rho"], r["family"], r["delta"]))
    rank = {}
    for row in rows:
        rank.setdefault(row["table"], 0)
        rank[row["table"]] += 1
        row["rank"] = rank[row["table"]]
    return rows


def n2_winners(n: int) -> tuple[int, ...]:
    """The t of the G(n, t) of largest rho at maximum degree n-2: n-3 for
    odd n, 2 and n-4 tied for even n."""
    return (n - 3,) if n % 2 else (2, n - 4)


def check_family_ordering(n: int) -> list[str]:
    """Exact assertions behind the order-n table; returns violation names."""
    tops = n2_winners(n)
    win = named_quotient("A_delta", n, tops[0]).closed_form
    bad = [] if named_quotient("A_delta", n, tops[-1]).closed_form == win else ["n2:f(2)!=f(n-4)"]
    # the winners are A_delta's first and last delta, or its last
    deltas = admissible_deltas("A_delta", n)
    others = deltas[deltas[0] in tops : len(deltas) - (deltas[-1] in tops)]
    bad += [f"n2:{name}" for name in _assert_strictly_larger(n, win, [("A_delta", others)])]
    if n >= 59:
        winner = named_quotient("B1" if n % 2 == 0 else "B2", n).closed_form
        rest = [("B_n5", [None])] + [(name, admissible_deltas(name, n)) for name in ("B_delta", "B_dd", "B_d1")]
        bad += [f"n3:{name}" for name in _assert_strictly_larger(n, winner, rest)]
        bad += _final_comparison_identities(n)
    return bad


def _final_comparison_identities(n: int) -> list[str]:
    """The four printed closing comparisons as exact polynomial identities."""
    bad = []
    p_dd = named_quotient("B_dd", n, n - 4).closed_form
    # lam * P(B_{n-4,n-4}) shifted coefficients
    lam_p = IntPolynomial((0,) + p_dd.coeffs)
    f1 = named_quotient("B1", n).closed_form
    f2 = named_quotient("B2", n).closed_form
    if (lam_p - f2).coeffs != (2 - 2 * n, 2 * n - 2, -2):
        bad.append("identity:lamP_dd-f2")
    if (lam_p - f1).coeffs != (2 - n, 3 * n - 10, -2):
        bad.append("identity:lamP_dd-f1")
    p_n41 = named_quotient("B_d1", n, n - 4).closed_form
    if (p_n41 - f2).coeffs != (1 - n, 2):
        bad.append("identity:P_n41-f2")
    p_31 = named_quotient("B_d1", n, 3).closed_form
    if (p_31 - f1).coeffs != (n - 6, n - 6):
        bad.append("identity:P_31-f1")
    return bad


def run_compare_families(n: int) -> dict:
    """The order-n table and the violations of its exact ordering."""
    if n < 5:
        raise ValueError("compare-families needs n >= 5")
    return {
        "suite": "compare-families",
        "n": n,
        "rows": family_table(n),
        "violations": check_family_ordering(n),
    }


# -- verify: theorems -----------------------------------------------------


def maximizer_verdicts(g: Graph, pair: PerronPair) -> list[tuple[str, bool, dict]]:
    """(check, holds, witness) of the structure of an exhaustive maximizer
    of order n and maximum degree n-2, given its Perron pair: the
    sub-maximal vertices induce a clique, their Perron components order as
    their full-degree neighborhoods nest (within 1e-9), each lies below
    every full-degree component (by 1e-12), and exactly one vertex has
    degree below n-2. The witness is the graph6 line and the degree sequence."""
    n = g.n
    degs = g.degrees()
    top = max(degs)
    low = [v for v, d in enumerate(degs) if d < top]
    high = [v for v, d in enumerate(degs) if d == top]
    x = pair.vector
    nbhd = {a: {w for w in g.neighbors(a) if degs[w] == top} for a in low}
    ordered = all(
        (not nbhd[b] <= nbhd[a] or x[b] <= x[a] + 1e-9) and (nbhd[b] <= nbhd[a] or not x[b] <= x[a] - 1e-9)
        for a in low
        for b in low
        if a != b
    )
    separated = not low or not high or max(float(x[v]) for v in low) < min(float(x[w]) for w in high) - 1e-12
    seq = g.degree_sequence()
    witness = {"graph6": graph6_encode(g), "degrees": seq}
    return [
        (check, ok, witness)
        for check, ok in (
            ("maximizer_low_clique", all(g.has_edge(a, b) for i, a in enumerate(low) for b in low[i + 1 :])),
            ("maximizer_component_order", ordered),
            ("maximizer_separation", separated),
            ("maximizer_degrees", seq[:-1] == [n - 2] * (n - 1) and seq[-1] < n - 2),
        )
    ]


def run_theorem_n2(n_min: int = 5, n_max: int = 8) -> dict:
    """Exhaustive search over every class with maximum degree n-2: the
    maximizers are exactly the predicted join graphs, with their structure."""
    if not 5 <= n_min <= n_max <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"theorem-n2 needs 5 <= n_min <= n_max <= {EXHAUSTIVE_MAX_N}")
    failures = []
    for n in range(n_min, n_max + 1):
        report = extremal_search(EnumSpec(n, n - 2))
        # extremal_search hands each maximizer back decoded from its canonical form
        got = {graph6_encode(g) for g in report.maximizers}
        want = {canonical_form(build_g(n, t)).decode() for t in n2_winners(n)}
        witness = {"got": sorted(got), "want": sorted(want)}
        failures += failure_records(n, [("maximizer_set", got == want, witness)])
        for g, pair in zip(report.maximizers, perron_all(report.maximizers)):
            failures += failure_records(n, maximizer_verdicts(g, pair))
        print(
            f"theorem-n2 n={n}: {len(report.maximizers)} maximizer(s) over "
            f"{report.total_classes} classes, rho={report.rho_max:.9f}",
            file=sys.stderr,
        )
    return {"suite": "theorem-n2", "n_min": n_min, "n_max": n_max, "failures": failures, "pass": not failures}


def run_theorem_n3(n_min: int = 59, n_max: int = 200) -> dict:
    if not 59 <= n_min <= n_max:
        raise ValueError("theorem-n3 needs 59 <= n_min <= n_max")
    check_quotient_order(n_max)
    failures = []
    for n in range(n_min, n_max + 1):
        bad = check_family_ordering(n)
        failures += failure_records(n, [("family_ordering", not bad, bad)])
    return {"suite": "theorem-n3", "n_min": n_min, "n_max": n_max, "failures": failures, "pass": not failures}


# -- verify: sandwich -----------------------------------------------------


def default_profile(n: int, delta: int) -> ComplementProfile:
    """A canonical type-II-bearing profile for the (n, delta) family; the
    sandwich suite's ranges 59 <= n and 3 <= delta <= n-5 give it at least
    two outer pairs."""
    outer_pairs = (n - delta - 1) // 2
    if delta >= 4:
        return ComplementProfile(type1=outer_pairs - 1, type2=(1,), type3=(delta - 1,))
    return ComplementProfile(type1=outer_pairs - 1, type2=(delta,))


def run_sandwich(
    n: int = 60, delta: int | None = None, profile: ComplementProfile | None = None
) -> dict:
    """Check rho(B_delta) <= rho(G) < rho(B_delta) + 1/n^2 on a profile graph.
    delta defaults to 5 for even n and 4 for odd n, the profile to
    `default_profile(n, delta)`."""
    if n < 59:
        raise ValueError("sandwich suite needs n >= 59")
    if delta is None:
        delta = 5 if n % 2 == 0 else 4
    if not 3 <= delta <= n - 5:
        raise ValueError("sandwich suite needs 3 <= delta <= n-5")
    if profile is None:
        profile = default_profile(n, delta)
    if not profile.type2:
        raise ValueError("sandwich profile needs at least one type-II component")
    g = build_from_profile(n, delta, profile)
    rho_g = perron(g).rho
    poly = named_quotient("B_delta", n, delta).closed_form
    rho_b = max_real_root(poly)
    width = 1.0 / (n * n)
    fine = 2 * (n - 1) / (3 * (n - 4) ** 3) + 2 * (n - 1) / (3 * (n - 4) ** 4)
    ok = (rho_b <= rho_g + 1e-9) and (rho_g < rho_b + width)
    return {
        "suite": "sandwich",
        "n": n,
        "delta": delta,
        "profile": profile.to_json(),
        "rho_graph": rho_g,
        "rho_quotient": rho_b,
        "width": width,
        "fine_width": fine,
        "within_fine_width": rho_g < rho_b + fine + 1e-12,
        "pass": bool(ok),
    }


# -- verify: lemmas -------------------------------------------------------


def _draw_switch(g: Graph, rng: random.Random) -> tuple[int, int, int, int] | None:
    """One (s, t, v, u) of distinct vertices with st and uv edges and sv
    and tu non-edges, a move local switching applies to, or None when g
    has none. The draw is `rng.choice` over the list of every move, edges
    (s, t) first as `edges()` gives them and then reversed, u and v
    ascending within each: one `rng.randrange` over the count, the sum over
    s != u of |N(s) - N[u]| |N(u) - N[s]|, and a walk up to the move drawn."""
    rows, full, total = g.rows, (1 << g.n) - 1, 0
    for s, u in combinations(range(g.n), 2):  # the sum is symmetric in s and u
        total += (rows[s] & ~(rows[u] | 1 << u)).bit_count() * (rows[u] & ~(rows[s] | 1 << s)).bit_count()
    if not total:
        return None
    k = rng.randrange(2 * total)
    edges = list(g.edges())
    for s, t in edges + [(b, a) for a, b in edges]:
        free_v = ~(rows[s] | 1 << s | 1 << t)
        us = full & ~(rows[t] | 1 << s | 1 << t)
        while us:
            u = (us & -us).bit_length() - 1
            us &= us - 1
            vs = rows[u] & free_v
            if k < (count := vs.bit_count()):
                for _ in range(k):
                    vs &= vs - 1
                return s, t, (vs & -vs).bit_length() - 1, u
            k -= count


def ls_hypothesis(pair: PerronPair, move: tuple) -> bool:
    """Whether local switching on move = (s, t, v, u) meets its hypothesis
    (x_s - x_u)(x_v - x_t) >= 0 on the Perron vector x of the pair: a float
    sign, which rounding sets where the product is exactly 0 (on C4)."""
    s, t, v, u = move
    x = pair.vector
    return (x[s] - x[u]) * (x[v] - x[t]) >= 0


def ls_verdicts(g: Graph, pair: PerronPair, move: tuple, rho_after: float) -> list[tuple[str, bool, str]]:
    """(check, holds, witness) of local switching on a move = (s, t, v, u)
    that meets `ls_hypothesis`, given the Perron pair of g and rho(G') of the
    switched graph: rho(G') >= rho(G) - 1e-9. The witness is the graph6 line
    and the tuple."""
    return [("ls_monotone", rho_after >= pair.rho - 1e-9, f"{graph6_encode(g)} {','.join(map(str, move))}")]


def local_switching_failures(rng: random.Random, trials: int) -> list[dict]:
    """Local switching with a nonnegative hypothesis never lowers rho:
    `trials` such verdicts, one random move per random connected graph of
    order 5..9, giving up after 200 graphs per trial. The graphs are drawn
    in rounds of at most ROUND; each round solves its graphs with
    `perron_all`, keeps the moves that meet `ls_hypothesis`, and solves the
    graphs those moves switch with one `spectral_radii` call, which accepts
    the disconnected ones (the 6-cycle s-a-v-u-b-t becomes two triangles).
    A graph gives at most one verdict, so a round never draws a graph that
    drawing one at a time would not."""
    failures = []
    done = graphs = 0
    while done < trials and graphs < 200 * trials:
        batch = min(trials - done, 200 * trials - graphs, ROUND)
        graphs += batch
        moves = []
        for _ in range(batch):
            g = random_connected_graph(rng, rng.randint(5, 9), 0.45)
            move = _draw_switch(g, rng)
            if move is not None:
                moves.append((g, move))
        pairs = perron_all([g for g, _ in moves])
        held = [(g, move, pair) for (g, move), pair in zip(moves, pairs) if ls_hypothesis(pair, move)]
        switched = spectral_radii([apply(g, SwitchMove("LS", move)) for g, move, _ in held])
        for (g, move, pair), rho_after in zip(held, switched):
            failures += failure_records(g.n, ls_verdicts(g, pair, move, rho_after))
        done += len(held)
    return failures + failure_records(None, [("ls_trials_completed", done == trials, f"{done}/{trials}")])


def component_bound_verdicts(g: Graph, pair: PerronPair) -> list[tuple[str, bool, str]]:
    """(check, holds, witness) of rho(G) * max Perron component < sqrt(max
    degree) on a connected graph, given its Perron pair; the witness is the
    graph6 line and both sides."""
    lhs = pair.rho * float(pair.vector.max())
    rhs = sqrt(g.max_degree())
    return [("perron_component_bound", lhs < rhs, f"{graph6_encode(g)} {lhs} vs {rhs}")]


def component_bound_failures(rng: random.Random, trials: int, min_order: int) -> list[dict]:
    """The component bound on `trials` random connected graphs of order
    min_order..10, drawn and solved in rounds of ROUND."""
    draws = (random_connected_graph(rng, rng.randint(min_order, 10), 0.5) for _ in range(trials))
    failures = []
    while graphs := list(islice(draws, ROUND)):
        for g, pair in zip(graphs, perron_all(graphs)):
            failures += failure_records(g.n, component_bound_verdicts(g, pair))
    return failures


def switch_improvement_failures(orders) -> list[dict]:
    """Switching G2,1(n) to H2(n) strictly raises rho, for every odd n in
    `orders`, all the graphs solved in one `perron_all`."""
    orders = list(orders)
    rho = [p.rho for p in perron_all([build_family(tag, n) for tag in ("g21", "h2") for n in orders])]
    failures = []
    for n, before, after in zip(orders, rho, rho[len(orders) :]):
        failures += failure_records(n, [("g21_to_h2_strict", after > before + 1e-12, f"{before} -> {after}")])
    return failures


def random_partition_cases(rng: random.Random, trials: int):
    """`trials` random connected graphs of order 4..10, each with a random
    partition of its vertices into at most n-1 cells."""
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.5)
        k = rng.randint(1, g.n - 1)
        cells = [[] for _ in range(k)]
        for v in range(g.n):
            cells[rng.randrange(k)].append(v)
        yield g, [c for c in cells if c]


def quotient_bound_verdicts(g: Graph, cells, spec, pair: PerronPair, rho_b: float) -> list[tuple[str, bool, str]]:
    """(check, holds, witness) of the quotient bound rho(G) >= rho(B) on a
    partition of a connected graph, given B = `quotient(g, cells)`, g's
    Perron pair and rho(B). Equality occurs exactly when the Perron vector
    is constant on cells: equitable partitions of connected graphs always
    are, some inequitable ones happen to be as well, and on every other
    partition the bound is strict. The witness is the graph6 line and cells."""
    witness = f"{graph6_encode(g)} {cells}"
    x = pair.vector
    verdicts = [("quotient_bound", pair.rho >= rho_b - 1e-9, witness)]
    if spec.equitable:
        verdicts.append(("quotient_equitable_equality", abs(pair.rho - rho_b) < 1e-9, witness))
    elif not all(max(x[v] for v in c) - min(x[v] for v in c) < 1e-7 for c in cells):
        verdicts.append(("quotient_bound_strict", pair.rho > rho_b, witness))
    return verdicts


def quotient_bound_failures(rng: random.Random, trials: int) -> list[dict]:
    """The quotient bound on the `random_partition_cases`, drawn and solved
    in rounds of ROUND."""
    cases = random_partition_cases(rng, trials)
    failures = []
    while batch := list(islice(cases, ROUND)):
        specs = [quotient(g, cells) for g, cells in batch]
        for (g, cells), *solved in zip(batch, specs, perron_all([g for g, _ in batch]), quotient_radii(specs)):
            failures += failure_records(g.n, quotient_bound_verdicts(g, cells, *solved))
    return failures


def family_quotient_verdicts(
    g: Graph, cells, base, looped, rho_g: float, rho_g_looped: float, rho_b: float, rho_looped: float
) -> list[tuple[str, bool, str]]:
    """(check, holds, witness) on a loop-free family graph with its
    documented partition, given the quotients (`quotient`), spectral radii
    and quotient radii of g and of g with a loop at every vertex: the
    partition is equitable with rho(B) = rho(G), and with a loop at every
    vertex its quotient is exactly B + 2I and both spectral radii shift by
    exactly 2. The witness is the graph6 line and the partition."""
    witness = f"{graph6_encode(g)} {cells}"
    sizes = base.sizes
    plus_2i = looped.sizes == sizes and looped.counts == tuple(
        tuple(c + 2 * sizes[i] * (i == j) for j, c in enumerate(row)) for i, row in enumerate(base.counts)
    )
    return [
        ("family_equitable", base.equitable, witness),
        ("family_quotient_rho", abs(rho_g - rho_b) < 1e-9, witness),
        (
            "loop_shift",
            looped.equitable
            and plus_2i
            and abs(rho_g_looped - (rho_g + 2)) < 1e-9
            and abs(rho_looped - (rho_b + 2)) < 1e-9,
            witness,
        ),
    ]


def path_op_verdicts(
    gloop: Graph, move: SwitchMove, before: PerronPair, after: PerronPair
) -> list[tuple[str, bool, str]]:
    """(check, holds, witness) of a path operation on a loop graph, given
    the Perron pairs of G = gloop and of G~ = apply(gloop, move), within
    1e-9: Op1 gives rho(G~) <= rho(G) <= rho(G~) + 2 (x1 - x2)^2, with x
    the Perron vector of G, and Op2 does not lower rho. The witness is the
    loop graph's JSON (graph6 carries no loops), the move and both spectral
    radii."""
    if move.kind not in ("Op1", "Op2"):
        raise ValueError("move must be an Op1 or an Op2")
    witness = f"{gloop.to_json()} {move.kind} {list(move.vertices)} {before.rho} -> {after.rho}"
    if move.kind == "Op2":
        return [("op2_monotone", after.rho >= before.rho - 1e-9, witness)]
    x1, x2 = (float(before.vector[v]) for v in move.vertices[:2])
    upper = after.rho + 2.0 * (x1 - x2) ** 2
    return [("op1_sandwich", after.rho <= before.rho + 1e-9 and before.rho <= upper + 1e-9, witness)]


def case2_verdicts(g: Graph, pair: PerronPair) -> list[tuple[str, bool, str]]:
    """(check, holds, witness) of the two-low-vertex inequality chain on a
    graph with exactly two sub-maximal vertices u and v, given its Perron
    pair, u of the larger degree (on a tie, of the larger Perron component):
      case2_min_gap:  (lambda + 1)(M - m) <= 2M - (x_u + x_v)
      case2_diff_gap: (d_u - d_v) m <= (lambda + 1)(x_u - x_v)
    where m and M are the least and greatest Perron components over the
    full-degree vertices. Each holds within 1e-12; the witness is the graph6
    line and both sides."""
    degs = g.degrees()
    top = max(degs)
    low = [v for v, d in enumerate(degs) if d < top]
    if len(low) != 2:
        raise ValueError(f"case-2 checks need exactly 2 sub-maximal vertices, got {len(low)}")
    lam, x = pair.rho, pair.vector
    u, v = sorted(low, key=lambda w: (degs[w], x[w]), reverse=True)
    full = [float(x[w]) for w, d in enumerate(degs) if d == top]
    m, big = min(full), max(full)
    xu, xv = float(x[u]), float(x[v])
    code = graph6_encode(g)
    return [
        (check, lhs <= rhs + 1e-12, f"{code} {lhs} vs {rhs}")
        for check, lhs, rhs in (
            ("case2_min_gap", (lam + 1) * (big - m), 2 * big - (xu + xv)),
            ("case2_diff_gap", (degs[u] - degs[v]) * m, (lam + 1) * (xu - xv)),
        )
    ]


def run_lemmas(trials: int = 200, seed: int = 0) -> dict:
    """Randomized and family-based property sweep."""
    if trials < 0:
        raise ValueError("lemmas suite needs trials >= 0")
    rng = random.Random(seed)
    failures = local_switching_failures(rng, trials)
    failures += component_bound_failures(rng, trials, 3)
    failures += quotient_bound_failures(rng, trials)

    # equitable partitions and loop shift on the named families, solved together
    families = []
    for n in range(8, 41):
        families.append((build_g(n, 2), g_partition(n, 2)))
        for tag in ("h1",) if n % 2 == 0 else ("h2", "g21"):
            families.append((build_family(tag, n), profile_family_partition(tag, n)))
    graphs = [g for g, _ in families] + [g.add_loops() for g, _ in families]
    specs = [quotient(g, cells) for g, (_, cells) in zip(graphs, families + families)]
    rho, radii, k = spectral_radii(graphs), quotient_radii(specs), len(families)
    for (g, cells), *solved in zip(families, specs, specs[k:], rho, rho[k:], radii, radii[k:]):
        failures += failure_records(g.n, family_quotient_verdicts(g, cells, *solved))

    # switching monotonicity on two profile instances
    for n, delta, profile, move in (
        (15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,)), SwitchMove("Op1", (13, 1, 2, 3, 14))),
        (17, 12, ComplementProfile(type2=(6, 6)), SwitchMove("Op2", (13, 1, 2, 3, 4, 5, 6, 14))),
    ):
        gl = build_from_profile(n, delta, profile).add_loops()
        failures += failure_records(n, path_op_verdicts(gl, move, *perron_all([gl, apply(gl, move)])))

    # the two-low-vertex inequality chain on both case-2 shapes
    case2 = [build_case2(n, 4, 4, ComplementProfile(type3=(3,))) for n in range(12, 41, 4)]
    case2.append(build_case2(12, 3, 1, ComplementProfile(type1=1)))
    for g, pair in zip(case2, perron_all(case2)):
        failures += failure_records(g.n, case2_verdicts(g, pair))

    failures += switch_improvement_failures(range(9, 32, 2))
    for n in (5, 6):
        maximizers = extremal_search(EnumSpec(n, n - 2)).maximizers
        for g, pair in zip(maximizers, perron_all(maximizers)):
            failures += failure_records(n, maximizer_verdicts(g, pair))
    return {
        "suite": "lemmas",
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "pass": not failures,
    }
