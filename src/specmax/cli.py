"""Command-line verification suites and family tables.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
JSON written to stdout is deterministic for fixed flags and seed; timing
and progress go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .enumeration import (
    EXHAUSTIVE_MAX_N,
    EnumSpec,
    enumerate_graphs,
    extremal_search,
    structure_audit,
)
from .families import (
    ComplementProfile,
    admissible_deltas,
    build_from_profile,
    build_g,
    build_g2_1,
    build_h1,
    build_h2,
    g2_1_partition,
    g_partition,
    h1_partition,
    h2_partition,
    named_quotient,
)
from .graphs import (
    CapabilityError,
    Graph,
    canonical_form,
    graph6_decode,
    graph6_encode,
    random_connected_graph,
)
from .intpoly import (
    IntPolynomial,
    compare_max_real_roots,
    count_roots,
    isolate_max_real_root,
    max_real_root,
)
from .partition import loop_shift_check, quotient
from .spectral import ConvergenceError, perron, perron_component_bound
from .switching import SwitchMove, ls_certificate, op1_sandwich_check, op2_monotone_check


class UsageError(ValueError):
    pass


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- named quotient tables -------------------------------------------------

FIXED_QUOTIENTS = ("B1", "B2", "B_n5")


def _named_polys(n: int) -> list[tuple[str, str, int, IntPolynomial]]:
    """(table, family, delta, closed form) of every named quotient in the
    order-n tables; the n3 table starts with its winner, B1 or B2."""
    names = [("n2", "A_delta")]
    if n >= 59:
        winner = "B1" if n % 2 == 0 else "B2"
        names += [("n3", name) for name in (winner, "B_n5", "B_delta", "B_dd", "B_d1")]
    polys = []
    for table, name in names:
        deltas = [None] if name in FIXED_QUOTIENTS else admissible_deltas(name, n)
        for d in deltas:
            nq = named_quotient(name, n, d)
            polys.append((table, name, nq.delta, nq.closed_form))
    return polys


def _assert_strictly_larger(
    winner: IntPolynomial, others: list[tuple[str, IntPolynomial]]
) -> list[str]:
    """Exact check that winner's max real root beats every other poly.

    Uses a rational separator just below the winner root; any competitor
    with a root above the separator falls back to an exact pairwise
    comparison.  Returns the names of violators (empty when all pass).
    """
    winner_root = max_real_root(winner)
    sep = Fraction(winner_root).limit_denominator(10**10) - Fraction(1, 10**8)
    if count_roots(winner, sep, None) != 1:
        sep = isolate_max_real_root(winner).lo
    bad = []
    for name, poly in others:
        if count_roots(poly, sep, None) == 0:
            continue
        if compare_max_real_roots(poly, winner) < 0:
            continue
        bad.append(f"{name}: root {max_real_root(poly):.12f} !< {winner_root:.12f}")
    return bad


# -- verify: signs --------------------------------------------------------


def run_verify_signs(n_min: int, n_max: int) -> dict:
    """Exact sign table of the quartic comparisons at the four rational
    evaluation points, for every n in [n_min, n_max]."""
    if not 59 <= n_min <= n_max:
        raise UsageError("signs suite needs 59 <= n_min <= n_max")
    checks = []
    failures = 0
    for n in range(n_min, n_max + 1):
        t1 = Fraction(n) - 3 - Fraction(2, n) + Fraction(4, n * n) + Fraction(5, n**3)
        t2 = Fraction(n, 2)
        t3 = Fraction(0)
        t4 = Fraction(-1) - Fraction(2, n) - Fraction(4, n * n)
        g = named_quotient("B_n5", n).closed_form
        f2 = named_quotient("B2", n).closed_form
        expect = [
            ("g(t4)<0", g(t4) < 0, str(g(t4))),
            ("g(t3)>0", g(t3) > 0, str(g(t3))),
            ("g(t2)<0", g(t2) < 0, str(g(t2))),
            ("g(t1)>0", g(t1) > 0, str(g(t1))),
            ("f2(t1)<0", f2(t1) < 0, str(f2(t1))),
            ("f2(n-3)>0", f2(Fraction(n - 3)) > 0, str(f2(Fraction(n - 3)))),
            ("g(n-3)>0", g(Fraction(n - 3)) > 0, str(g(Fraction(n - 3)))),
        ]
        # the two printed 1/n expansions, as exact rational identities
        inv = Fraction(1, n)
        f2_series = (
            -3 - 35 * inv + 244 * inv**2 + 52 * inv**3 - 969 * inv**4
            - 194 * inv**5 + 2076 * inv**6 + 718 * inv**7 - 2789 * inv**8
            - 1995 * inv**9 + 1400 * inv**10 + 2000 * inv**11 + 625 * inv**12
        )
        g_series = (
            1 - 62 * inv + 190 * inv**2 + 172 * inv**3 - 817 * inv**4
            - 420 * inv**5 + 1750 * inv**6 + 808 * inv**7 - 2489 * inv**8
            - 1870 * inv**9 + 1400 * inv**10 + 2000 * inv**11 + 625 * inv**12
        )
        expect.append(("f2(t1) expansion", f2(t1) == f2_series, str(f2(t1))))
        expect.append(("g(t1) expansion", g(t1) == g_series, str(g(t1))))
        expect.append(
            (
                "g(t2) closed form",
                g(t2) == Fraction(-(n**4), 16) + Fraction(7 * n * n, 2) - 4 * n - 17,
                str(g(t2)),
            )
        )
        for name, ok, witness in expect:
            if not ok:
                failures += 1
                checks.append({"n": n, "check": name, "pass": False, "value": witness})
    return {
        "suite": "signs",
        "n_min": n_min,
        "n_max": n_max,
        "checks_per_n": 10,
        "failures": checks,
        "pass": failures == 0,
    }


# -- compare families -----------------------------------------------------


def family_table(n: int) -> list[dict]:
    """Rows (table, family, delta, rho) for every admissible named quotient."""
    rows = [
        {"table": table, "family": family, "delta": d, "rho": max_real_root(poly), "n": n}
        for table, family, d, poly in _named_polys(n)
    ]
    rows.sort(key=lambda r: (r["table"], -r["rho"], r["family"], r["delta"]))
    rank = {}
    for row in rows:
        rank.setdefault(row["table"], 0)
        rank[row["table"]] += 1
        row["rank"] = rank[row["table"]]
    return rows


def check_family_ordering(n: int) -> list[str]:
    """Exact assertions behind the order-n table; returns violation names."""
    bad = []
    polys = _named_polys(n)
    n2 = {d: poly for table, _, d, poly in polys if table == "n2"}
    if n2:
        # the n2 winner: delta = n-3 for odd n, {2, n-4} tied for even n
        tops = (n - 3,) if n % 2 else (2, n - 4)
        win = n2[tops[0]]
        if n2[tops[-1]] != win:
            bad.append("n2:f(2)!=f(n-4)")
        others = [(f"A_delta({d})", poly) for d, poly in n2.items() if d not in tops]
        bad += [f"n2:{name}" for name in _assert_strictly_larger(win, others)]
    if n >= 59:
        (_, winner), *rest = [
            (family if family in FIXED_QUOTIENTS else f"{family}({d})", poly)
            for table, family, d, poly in polys
            if table == "n3"
        ]
        bad += [f"n3:{name}" for name in _assert_strictly_larger(winner, rest)]
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


def run_compare_families(n: int, fmt: str = "json") -> tuple[dict, bool]:
    if n < 5:
        raise UsageError("compare-families needs n >= 5")
    rows = family_table(n)
    bad = check_family_ordering(n)
    result = {"suite": "compare-families", "n": n, "rows": rows, "violations": bad}
    if fmt == "csv":
        lines = ["n,table,family,delta,rho,rank"]
        for r in rows:
            lines.append(
                f"{r['n']},{r['table']},{r['family']},{r['delta']},{r['rho']:.12f},{r['rank']}"
            )
        print("\n".join(lines))
    else:
        _emit(result)
    return result, not bad


# -- verify: theorems -----------------------------------------------------


def run_theorem_n2(n_min: int, n_max: int) -> dict:
    if not 5 <= n_min <= n_max <= EXHAUSTIVE_MAX_N:
        raise UsageError(f"theorem-n2 needs 5 <= n_min <= n_max <= {EXHAUSTIVE_MAX_N}")
    failures = []
    for n in range(n_min, n_max + 1):
        report = extremal_search(EnumSpec(n, n - 2))
        got = {canonical_form(g) for g in report.maximizers}
        if n % 2 == 1:
            want = {canonical_form(build_g(n, n - 3))}
        else:
            want = {canonical_form(build_g(n, 2)), canonical_form(build_g(n, n - 4))}
        if got != want:
            failures.append(
                {
                    "n": n,
                    "got": sorted(c.decode("ascii") for c in got),
                    "want": sorted(c.decode("ascii") for c in want),
                }
            )
        for g in report.maximizers:
            audit = structure_audit(g)
            seq = g.degree_sequence()
            audit_ok = (
                audit["low_set_is_clique"]
                and audit["component_order_matches_neighborhoods"]
                and audit["low_below_high_components"]
                and seq[: n - 1] == [n - 2] * (n - 1)
            )
            if not audit_ok:
                failures.append({"n": n, "audit": audit, "degrees": seq})
        _status(
            f"theorem-n2 n={n}: {len(report.maximizers)} maximizer(s) over "
            f"{report.total_classes} classes, rho={report.rho_max:.9f}"
        )
    return {"suite": "theorem-n2", "n_min": n_min, "n_max": n_max, "failures": failures, "pass": not failures}



def run_theorem_n3(n_min: int, n_max: int) -> dict:
    if not 59 <= n_min <= n_max:
        raise UsageError("theorem-n3 needs 59 <= n_min <= n_max")
    failures = []
    for n in range(n_min, n_max + 1):
        bad = check_family_ordering(n)
        if bad:
            failures.append({"n": n, "violations": bad})
    return {"suite": "theorem-n3", "n_min": n_min, "n_max": n_max, "failures": failures, "pass": not failures}


# -- verify: sandwich -----------------------------------------------------


def default_profile(n: int, delta: int) -> ComplementProfile:
    """A canonical type-II-bearing profile for the (n, delta) family."""
    outer_pairs = (n - delta - 1) // 2
    if outer_pairs < 1 or delta < 1:
        raise UsageError(f"no type-II profile exists for (n={n}, delta={delta})")
    if delta >= 4:
        return ComplementProfile(type1=outer_pairs - 1, type2=(1,), type3=(delta - 1,))
    return ComplementProfile(type1=outer_pairs - 1, type2=(delta,))


def run_sandwich(n: int, delta: int, profile: ComplementProfile) -> dict:
    """Check rho(B_delta) <= rho(G) < rho(B_delta) + 1/n^2 on a profile graph."""
    if n < 59:
        raise UsageError("sandwich suite needs n >= 59")
    if not 3 <= delta <= n - 5:
        raise UsageError("sandwich suite needs 3 <= delta <= n-5")
    if not profile.type2:
        raise UsageError("sandwich profile needs at least one type-II component")
    g = build_from_profile(n, delta, profile)
    rho_g = perron(g).rho
    poly = named_quotient("B_delta", n, delta).closed_form
    bracket = isolate_max_real_root(poly)
    rho_b = max_real_root(poly, bracket)
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


def run_lemmas(trials: int, seed: int) -> dict:
    """Randomized and family-based property sweep."""
    if trials < 0:
        raise UsageError("lemmas suite needs trials >= 0")
    rng = random.Random(seed)
    failures = []

    def check(name, ok, witness=""):
        if not ok:
            failures.append({"check": name, "witness": witness})

    # local switching with nonnegative hypothesis never lowers rho
    done = 0
    attempts = 0
    while done < trials and attempts < 200 * trials:
        attempts += 1
        g = random_connected_graph(rng, rng.randint(5, 9), 0.45)
        verts = list(range(g.n))
        rng.shuffle(verts)
        s, t, v, u = verts[:4]
        if not (
            g.has_edge(u, v)
            and g.has_edge(s, t)
            and not g.has_edge(s, v)
            and not g.has_edge(t, u)
        ):
            continue
        cert = ls_certificate(g, s, t, v, u)
        if cert.hypothesis_value >= 0:
            done += 1
            check("ls_monotone", cert.conclusion_holds, f"{graph6_encode(g)} {s},{t},{v},{u}")
    check("ls_trials_completed", done == trials, f"{done}/{trials}")

    # Perron component bound on random connected graphs
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(3, 10), 0.5)
        lhs, rhs, holds = perron_component_bound(g)
        check("perron_component_bound", holds, f"{graph6_encode(g)} {lhs} vs {rhs}")

    # quotient bound on random partitions; equality occurs exactly when the
    # Perron vector is constant on cells (equitable partitions of connected
    # graphs always are; some inequitable ones happen to be as well)
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.5)
        cells = _random_partition(rng, g.n)
        spec = quotient(g, cells)
        pair = perron(g)
        rho_b = spec.rho()
        check("quotient_bound", pair.rho >= rho_b - 1e-9, f"{graph6_encode(g)} {cells}")
        cell_constant = all(
            max(float(pair.vector[v]) for v in cell)
            - min(float(pair.vector[v]) for v in cell)
            < 1e-7
            for cell in cells
        )
        if spec.equitable:
            check(
                "quotient_equitable_equality",
                abs(pair.rho - rho_b) < 1e-9,
                f"{graph6_encode(g)} {cells}",
            )
        elif not cell_constant:
            check(
                "quotient_bound_strict",
                pair.rho > rho_b,
                f"{graph6_encode(g)} {cells}",
            )

    # equitable partitions and loop shift on the named families
    for n in range(8, 41):
        fams = [(build_g(n, 2), g_partition(n, 2))]
        if n % 2 == 0:
            fams.append((build_h1(n), h1_partition(n)))
        elif n >= 9:
            fams.append((build_h2(n), h2_partition(n)))
            fams.append((build_g2_1(n), g2_1_partition(n)))
        for g, cells in fams:
            spec = quotient(g, cells)
            check("family_equitable", spec.equitable, f"n={n}")
            check(
                "family_quotient_rho",
                abs(perron(g).rho - spec.rho()) < 1e-9,
                f"n={n}",
            )
            check("loop_shift", loop_shift_check(g, cells), f"n={n}")

    # switching monotonicity on two profile instances
    gl = build_from_profile(15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,))).add_loops()
    check("op1_sandwich", op1_sandwich_check(gl, SwitchMove("Op1", (13, 1, 2, 3, 14))))
    gl = build_from_profile(17, 12, ComplementProfile(type2=(6, 6))).add_loops()
    check("op2_monotone", op2_monotone_check(gl, SwitchMove("Op2", (13, 1, 2, 3, 4, 5, 6, 14))))

    # strict improvement from the nonadjacent-neighbors family to its switch
    for n in range(9, 32, 2):
        before = perron(build_g2_1(n)).rho
        after = perron(build_h2(n)).rho
        check("g21_to_h2_strict", after > before + 1e-9, f"n={n}")

    # structural facts about small exhaustive maximizers
    for n in (5, 6):
        for g in extremal_search(EnumSpec(n, n - 2)).maximizers:
            audit = structure_audit(g)
            check("maximizer_low_clique", audit["low_set_is_clique"], f"n={n}")
            check(
                "maximizer_component_order",
                audit["component_order_matches_neighborhoods"],
                f"n={n}",
            )
            check(
                "maximizer_separation", audit["low_below_high_components"], f"n={n}"
            )

    return {
        "suite": "lemmas",
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "pass": not failures,
    }


def _random_partition(rng: random.Random, n: int) -> list[list[int]]:
    k = rng.randint(1, max(1, n - 1))
    cells = [[] for _ in range(k)]
    for v in range(n):
        cells[rng.randrange(k)].append(v)
    return [c for c in cells if c]


# -- construct / spectrum / quotient / enumerate ---------------------------


def _build_family(args) -> Graph:
    from .families import FamilyId

    prof = _load_profile(args.profile) if args.profile else None
    fid = FamilyId(args.family, args.n, args.delta, prof)
    return fid.build()


def _load_profile(path: str) -> ComplementProfile:
    with open(path) as fh:
        return ComplementProfile.from_json(json.load(fh))


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        text = fh.read().strip()
    # '{"' cannot start a graph6 line ('"' is outside the 6-bit byte range)
    if text.startswith('{"'):
        return Graph.from_json(text)
    return graph6_decode(text.partition("\n")[0])


def cmd_construct(args) -> int:
    g = _build_family(args)
    line = graph6_encode(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


def cmd_spectrum(args) -> int:
    g = _read_graph(args.infile)
    pair = perron(g, args.tol)
    _emit(pair.to_json())
    return 0


def cmd_quotient(args) -> int:
    g = _read_graph(args.infile)
    with open(args.partition) as fh:
        cells = json.load(fh)
    spec = quotient(g, cells)
    _emit(
        {
            "matrix": spec.to_json(),
            "equitable": spec.equitable,
            "rho_graph": perron(g).rho if g.is_connected() else None,
            "rho_quotient": spec.rho(),
        }
    )
    return 0


def cmd_enumerate(args) -> int:
    spec = EnumSpec(args.n, args.max_degree)
    out = open(args.emit, "w") if args.emit else sys.stdout
    try:
        for g in enumerate_graphs(spec, checkpoint=args.checkpoint):
            out.write(graph6_encode(g) + "\n")
    finally:
        if args.emit:
            out.close()
    return 0


def _given(value, default):
    return default if value is None else value


def cmd_verify(args) -> int:
    t0 = time.time()
    if args.suite == "signs":
        result = run_verify_signs(_given(args.n_min, 59), _given(args.n_max, 500))
    elif args.suite == "theorem-n2":
        result = run_theorem_n2(_given(args.n_min, 5), _given(args.n_max, 8))
    elif args.suite == "theorem-n3":
        result = run_theorem_n3(_given(args.n_min, 59), _given(args.n_max, 200))
    elif args.suite == "lemmas":
        result = run_lemmas(args.trials, args.seed)
    elif args.suite == "sandwich":
        n = _given(args.n_min, 60)
        delta = _given(args.delta, 5 if n % 2 == 0 else 4)
        prof = _load_profile(args.profile) if args.profile else default_profile(n, delta)
        result = run_sandwich(n, delta, prof)
    else:
        raise UsageError(f"unknown suite {args.suite!r}")
    _status(f"suite {args.suite} finished in {time.time() - t0:.2f}s")
    _emit(result)
    return 0 if result["pass"] else 1


def cmd_compare_families(args) -> int:
    _, ok = run_compare_families(args.n, args.fmt)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="specmax")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family graph")
    c.add_argument("--family", required=True, choices=["g", "h1", "h2", "g21", "profile", "gdd", "gd1"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--delta", type=int)
    c.add_argument("--profile", help="JSON file with type1/type2/type3 counts")
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    s = sub.add_parser("spectrum", help="Perron eigenpair of a graph file")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--tol", type=float, default=1e-10)
    s.set_defaults(func=cmd_spectrum)

    q = sub.add_parser("quotient", help="quotient matrix of a partition")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--partition", required=True)
    q.set_defaults(func=cmd_quotient)

    e = sub.add_parser("enumerate", help="stream connected nonregular classes")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--max-degree", type=int, required=True)
    e.add_argument("--emit")
    e.add_argument("--checkpoint")
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=["signs", "theorem-n2", "theorem-n3", "lemmas", "sandwich"])
    v.add_argument("--n-min", type=int)
    v.add_argument("--n-max", type=int)
    v.add_argument("--delta", type=int)
    v.add_argument("--profile", help="JSON profile file (sandwich suite)")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("compare-families", help="rho table of named quotients")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--format", dest="fmt", choices=["csv", "json"], default="json")
    f.set_defaults(func=cmd_compare_families)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConvergenceError as exc:
        _status(f"verification failure: {exc}")
        return 1
    except (ValueError, OSError, CapabilityError) as exc:
        _status(f"usage error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
