"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

import pytest

from specmax import families
from specmax.families import (
    ComplementProfile,
    admissible_deltas,
    build_case2,
    build_family,
    build_from_profile,
    build_g,
    g_partition,
    named_quotient,
    profile_family_partition,
)
from specmax.intpoly import char_poly, compare_max_real_roots
from specmax.spectral import perron, perron_all, spectral_radii
from specmax.suites import (
    check_family_ordering,
    component_bound_failures,
    failure_records,
    local_switching_failures,
    path_op_verdicts,
    run_sandwich,
    run_theorem_n2,
    run_verify_signs,
    switch_improvement_failures,
)
from specmax.switching import SwitchMove, apply

from graph_shapes import adjacency_lists
from quotient_inputs import family_verdicts


def profile_partition(n: int, delta: int) -> list[list[int]]:
    """The low vertex, its neighborhood and the rest, as `build_from_profile`
    labels them."""
    return [[0], list(range(1, delta + 1)), list(range(delta + 1, n))]


def case2_partition(n: int, du: int, dv: int) -> list[list[int]]:
    """The equitable partition of `build_case2` for du = dv ({u, v}, the
    common neighborhood, the rest) and for dv = 1 (v, u, u's other
    neighbors, the rest)."""
    if du == dv:
        return [[0, 1], list(range(2, du + 1)), list(range(du + 1, n))]
    return [[1], [0], list(range(2, du + 1)), list(range(du + 1, n))]


def report(name, elapsed, detail=""):
    print(f"PASS {name} ({elapsed:.2f}s) {detail}".rstrip())


def test_criterion_1_formula_suite():
    """char_poly of every named quotient equals the printed closed form,
    exactly, for n in [8, 200] and every admissible delta."""
    t0 = time.time()
    checked = 0

    def check(which, n, d=None):
        nonlocal checked
        assert char_poly(families._FORMS[which](n, d)[0]) == named_quotient(which, n, d), (which, n, d)
        checked += 1

    for n in range(8, 201):
        for d in admissible_deltas("A_delta", n):
            check("A_delta", n, d)
        for d in admissible_deltas("B_delta", n):
            check("B_delta", n, d)
        for d in admissible_deltas("B_dd", n):
            check("B_dd", n, d)
        for d in admissible_deltas("B_d1", n):
            check("B_d1", n, d)
        if n % 2 == 0:
            check("B1", n)
        elif n >= 9:
            check("B2", n)
        if n >= 10:
            check("B_n5", n)
    elapsed = time.time() - t0
    assert elapsed < 10, f"formula suite too slow: {elapsed:.1f}s"
    report("criterion-1 formula-suite", elapsed, f"{checked} matrices, zero tolerance")


def test_criterion_2_theorem_n2_exhaustive():
    """Exhaustive extremal search at n in {5,6,7,8} finds exactly the
    predicted maximizers, with the n=8 tie exact."""
    t0 = time.time()
    # the maximizer sets, and exactly one sub-maximal vertex in every maximizer
    result = run_theorem_n2(5, 8)
    assert result["pass"], result["failures"]
    # the tied pair at n=8: equal rho numerically and exactly
    g2, g4 = build_g(8, 2), build_g(8, 4)
    assert abs(perron(g2, 1e-12).rho - perron(g4, 1e-12).rho) < 1e-9
    p2 = named_quotient("A_delta", 8, 2)
    p4 = named_quotient("A_delta", 8, 4)
    assert p2 == p4
    assert compare_max_real_roots(char_poly(adjacency_lists(g2)), char_poly(adjacency_lists(g4))) == 0
    report("criterion-2 theorem-n2-exhaustive", time.time() - t0, "n=5..8")


def test_criterion_3_sign_table():
    """Exact sign table for n in [59, 500], including the printed
    1/n-expansion identities."""
    t0 = time.time()
    result = run_verify_signs(59, 500)
    assert result["pass"], result["failures"][:3]
    elapsed = time.time() - t0
    assert elapsed < 5, f"sign table too slow: {elapsed:.1f}s"
    report("criterion-3 sign-table", elapsed, "n=59..500 exact, zero failures")


def test_criterion_4_family_ordering():
    """The parity winner's max root strictly exceeds every competitor's for
    n in [59, 2000], with the four closing comparisons as exact identities."""
    t0 = time.time()
    for n in range(59, 2001):
        bad = check_family_ordering(n)
        assert not bad, f"n={n}: {bad}"
    elapsed = time.time() - t0
    assert elapsed < 60, f"family ordering too slow: {elapsed:.1f}s"
    report("criterion-4 family-ordering", elapsed, "n=59..2000")


def test_criterion_5_equitable_and_loop_lemmas():
    """Every constructed family graph for n in [8, 100]: documented
    partition quotient matches rho(G) within 1e-9, and adding loops shifts
    the quotient by exactly 2I and rho by exactly 2."""
    t0 = time.time()
    instances = []
    for n in range(8, 101):
        tmax = n - 3 if (n - 3) % 2 == 0 else n - 4
        tmid = tmax // 2 if (tmax // 2) % 2 == 0 else tmax // 2 + 1
        for t in sorted({2, tmid, tmax}):
            if 2 <= t <= n - 3 and t % 2 == 0:
                instances.append((build_g(n, t), g_partition(n, t)))
        if n % 2 == 0:
            instances.append((build_family("h1", n), profile_family_partition("h1", n)))
        else:
            if n >= 9:
                instances.append((build_family("h2", n), profile_family_partition("h2", n)))
        if n >= 12:
            delta = n - 5  # matches the required parity for both parities of n
            prof = ComplementProfile(type1=(n - delta - 1) // 2, type3=(delta,))
            instances.append(
                (build_from_profile(n, delta, prof), profile_partition(n, delta))
            )
        if n >= 9:
            instances.append(
                (
                    build_case2(n, 4, 4, ComplementProfile(type3=(3,))),
                    case2_partition(n, 4, 4),
                )
            )
            instances.append(
                (
                    build_case2(n, 3, 1, ComplementProfile(type1=1)),
                    case2_partition(n, 3, 1),
                )
            )
    failures = [
        f
        for g, cells in instances
        for f in failure_records(g.n, family_verdicts(g, cells, *spectral_radii([g, g.add_loops()])))
    ]
    assert not failures, failures
    elapsed = time.time() - t0
    assert elapsed < 60, f"equitable/loop suite too slow: {elapsed:.1f}s"
    report("criterion-5 equitable-loop", elapsed, f"{len(instances)} family graphs, n=8..100")


def test_criterion_6_switching_properties():
    """1000 seeded nonnegative-hypothesis switches never lower rho; the
    degree-2 family switch is strictly improving for odd n in [9, 59];
    path-operation checks hold on constructed profiles."""
    t0 = time.time()
    failures = local_switching_failures(random.Random(20240810), 1000)
    assert not failures, failures
    failures = switch_improvement_failures(range(9, 60, 2))
    assert not failures, failures
    for n in (13, 15, 17, 19, 60, 100):
        delta = n - 5 if n % 2 == 0 else n - 7
        prof = ComplementProfile(
            type1=(n - delta - 1) // 2 - 1,
            type2=(3,),
            type3=(delta - 3,),
        )
        gl = build_from_profile(n, delta, prof).add_loops()
        first_end = delta + 1 + 2 * prof.type1
        path = (first_end, 1, 2, 3, first_end + 1)
        move = SwitchMove("Op1", path)
        [(check, ok, witness)] = path_op_verdicts(gl, move, *perron_all([gl, apply(gl, move)]))
        assert (check, ok) == ("op1_sandwich", True), f"Op1 n={n}: {witness}"
        # the (0, 2) profile at the top admissible degree; n-5 always has
        # the right parity
        delta2 = n - 5
        prof2 = ComplementProfile(type2=(3, delta2 - 3))
        gl2 = build_from_profile(n, delta2, prof2).add_loops()
        path2 = (delta2 + 1, 1, 2, 3, delta2 + 2)
        move = SwitchMove("Op2", path2)
        [(check, ok, witness)] = path_op_verdicts(gl2, move, *perron_all([gl2, apply(gl2, move)]))
        assert (check, ok) == ("op2_monotone", True), f"Op2 n={n}: {witness}"
    elapsed = time.time() - t0
    assert elapsed < 120, f"switching suite too slow: {elapsed:.1f}s"
    report("criterion-6 switching", elapsed, "1000 LS + families + path ops")


def test_criterion_7_sandwich_bound():
    """rho(B_delta) <= rho(G) < rho(B_delta) + 1/n^2 on ten type-II-bearing
    profiles with n in [59, 120]."""
    t0 = time.time()
    cases = [
        (59, 4), (60, 5), (61, 6), (70, 7), (80, 9),
        (90, 11), (100, 7), (110, 9), (120, 11), (75, 12),
    ]
    assert len(cases) >= 10
    for n, delta in cases:
        pairs = (n - delta - 1) // 2
        if (n, delta) == (100, 7):
            # two type-II paths on this instance
            prof = ComplementProfile(type1=pairs - 2, type2=(1, 1), type3=(5,))
        else:
            prof = ComplementProfile(type1=pairs - 1, type2=(1,), type3=(delta - 1,))
        assert run_sandwich(n, delta, prof)["pass"], f"n={n} delta={delta}"
    elapsed = time.time() - t0
    assert elapsed < 60, f"sandwich suite too slow: {elapsed:.1f}s"
    report("criterion-7 sandwich", elapsed, f"{len(cases)} profiles")


def test_criterion_8_component_bound():
    """rho(G) * max Perron component < sqrt(max degree) on 500 seeded
    random connected graphs with n <= 10."""
    t0 = time.time()
    failures = component_bound_failures(random.Random(8), 500, 2)
    assert not failures, failures
    elapsed = time.time() - t0
    assert elapsed < 10, f"component bound suite too slow: {elapsed:.1f}s"
    report("criterion-8 component-bound", elapsed, "500 graphs, zero failures")
