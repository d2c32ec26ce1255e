import contextlib
import io
import json
import os
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from math import comb, inf, nextafter, prod
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from specmax import families, intpoly, suites
from specmax.cli import main
from specmax.enumeration import EXHAUSTIVE_MAX_N
from specmax.families import FAMILY_TAGS, QUOTIENT_MAX_N, admissible_deltas, build_g, named_quotient
from specmax.suites import (
    check_family_ordering,
    default_profile,
    family_table,
    run_lemmas,
    run_sandwich,
    run_verify_signs,
)
from specmax.intpoly import (
    IntPolynomial,
    char_poly,
    compare_max_real_roots,
    max_real_root,
    progression_below,
    roots_below,
    scaled_value,
)
from specmax.spectral import perron
from specmax.graphs import (
    MAX_N,
    Graph,
    _g6_pack,
    canonical_form,
    graph6_encode,
    random_connected_graph,
)

from graph_shapes import adjacency_lists


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstructSpectrum:
    def test_construct_and_spectrum(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        code, out, _ = run(
            capsys, "construct", "--family", "g", "--n", "7", "--delta", "4",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "spectrum", "--in", str(path))
        assert code == 0
        data = json.loads(out)
        assert 4.88 < data["rho"] < 4.89
        assert len(data["vector"]) == 7

    def test_spectrum_reads_json_graphs(self, tmp_path, capsys):
        from specmax.families import build_g

        # indented, or with a space after the brace, the file gives the
        # compact form's output: neither whitespace nor '"' is a graph6 byte
        compact = build_g(6, 2).add_loops().to_json()
        outs = []
        for text in (compact, json.dumps(json.loads(compact), indent=2), "{ " + compact[1:]):
            path = tmp_path / "g.json"
            path.write_text(text)
            code, out, err = run(capsys, "spectrum", "--in", str(path))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs == [outs[0]] * 3
        assert json.loads(outs[0])["rho"] == pytest.approx(
            max_real_root(char_poly(adjacency_lists(build_g(6, 2)))) + 2, abs=1e-9
        )

    def test_construct_h1_header_collision(self, tmp_path, capsys):
        # n=60 encodes to a graph6 line starting with '{'; the reader must
        # still treat it as graph6
        path = tmp_path / "h1.g6"
        code, _, _ = run(
            capsys, "construct", "--family", "h1", "--n", "60", "--out", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "spectrum", "--in", str(path))
        assert code == 0
        assert json.loads(out)["rho"] > 56

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "h2", "--n", "10")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "g", "--n", "8"], "g needs delta"),
            (["--family", "gdd", "--n", "10"], "gdd needs delta"),
            (["--family", "gd1", "--n", "10"], "gd1 needs delta"),
            (["--family", "profile", "--n", "9"], "profile needs delta"),
            (["--family", "profile", "--n", "9", "--delta", "4"], "profile needs a complement profile"),
            # the default profiles are refused for the delta they cannot take,
            # not for the profile they would become
            *[
                (["--family", "gdd", "--n", "10", "--delta", str(d)],
                 f"gdd's default profile, one (delta-1)-cycle, needs delta >= 4, got {d}; give --profile")
                for d in range(4)
            ],
            (["--family", "gd1", "--n", "10", "--delta", "0"],
             "gd1's default profile, (delta-1)//2 type-1 edges, needs delta >= 1, got 0; give --profile"),
        ],
    )
    def test_refused_construct_messages(self, argv, message, capsys):
        assert run(capsys, "construct", *argv) == (2, "", f"usage error: {message}\n")

    def test_profile_mismatch_message(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"type1": 1, "type3": [4]}))
        argv = ["--family", "profile", "--n", "9", "--delta", "4", "--profile", str(prof)]
        assert run(capsys, "construct", *argv) == (
            2, "", "usage error: profile consumes 2 outer vertices, needs n-delta-1=4\n"
        )

    def test_profile_family(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"type1": 2, "type2": [], "type3": [4]}))
        out_path = tmp_path / "g.g6"
        code, _, _ = run(
            capsys, "construct", "--family", "profile", "--n", "9", "--delta", "4",
            "--profile", str(prof), "--out", str(out_path),
        )
        assert code == 0


class TestQuotientCommand:
    def test_quotient(self, tmp_path, capsys):
        gpath = tmp_path / "g.g6"
        run(capsys, "construct", "--family", "g", "--n", "7", "--delta", "4",
            "--out", str(gpath))
        ppath = tmp_path / "part.json"
        ppath.write_text("[[0],[1,2,3,4],[5,6]]")
        code, out, _ = run(capsys, "quotient", "--in", str(gpath), "--partition", str(ppath))
        assert code == 0
        data = json.loads(out)
        assert data["equitable"]
        assert data["matrix"][0] == [[0, 1], [4, 1], [0, 1]]
        assert data["rho_graph"] == pytest.approx(data["rho_quotient"], abs=1e-9)


class TestEnumerateCommand:
    def test_emit(self, tmp_path, capsys):
        out_path = tmp_path / "classes.g6"
        code, _, _ = run(
            capsys, "enumerate", "--n", "5", "--max-degree", "3",
            "--emit", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 8
        assert lines == sorted(lines)


class TestVerifySuites:
    def test_signs_small_window(self):
        result = run_verify_signs(59, 70)
        assert result["pass"]

    def test_signs_via_cli_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "signs", "--n-min", "59", "--n-max", "65")
        code2, out2, _ = run(capsys, "verify", "signs", "--n-min", "59", "--n-max", "65")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_signs_bad_range(self, capsys):
        code, _, _ = run(capsys, "verify", "signs", "--n-min", "10", "--n-max", "20")
        assert code == 2

    def test_theorem_n2_small(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem-n2", "--n-min", "5", "--n-max", "6")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_wrong_winner_fails_maximizer_set(self, monkeypatch, capsys):
        # t = 2 is the winner at n = 5 and 6, where it is the only
        # admissible t, and wrong at n = 7, where G(7, 4) wins
        monkeypatch.setattr(suites, "n2_winners", lambda n: (2,))
        code, out, _ = run(capsys, "verify", "theorem-n2", "--n-min", "5", "--n-max", "7")
        assert code == 1
        [record] = json.loads(out)["failures"]
        assert (record["check"], record["n"]) == ("maximizer_set", 7)
        assert record["witness"]["want"] == [canonical_form(build_g(7, 2)).decode()]

    def test_theorem_n3_window(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem-n3", "--n-min", "59", "--n-max", "62")
        assert code == 0

    def test_swapped_winner_fails_family_ordering(self, monkeypatch, capsys):
        # B2 wins the n3 table at n = 59 and B_n5 is its runner-up; with the
        # two closed forms swapped, B_n5 is named as beating the winner, and
        # the closing identities that read f2 fail as well
        b2, b_n5 = families._FORMS["B2"], families._FORMS["B_n5"]
        monkeypatch.setitem(families._FORMS, "B2", b_n5)
        monkeypatch.setitem(families._FORMS, "B_n5", b2)
        bad = check_family_ordering(59)
        assert [v.split(":")[:2] for v in bad] == [["n3", "B_n5"], ["identity", "lamP_dd-f2"], ["identity", "P_n41-f2"]]
        code, out, _ = run(capsys, "verify", "theorem-n3", "--n-min", "59", "--n-max", "59")
        assert code == 1
        [record] = json.loads(out)["failures"]
        assert (record["check"], record["n"]) == ("family_ordering", 59)
        assert record["witness"][0].startswith("n3:B_n5: root ")

    def test_lemmas(self):
        result = run_lemmas(trials=25, seed=7)
        assert result["pass"], result["failures"]

    def test_sandwich(self):
        result = run_sandwich(60, 5, default_profile(60, 5))
        assert result["pass"]
        assert result["rho_quotient"] <= result["rho_graph"] < (
            result["rho_quotient"] + result["width"]
        )

    @pytest.mark.parametrize(
        "offset, ok",
        [(0.0, True), (1 / 60**2 - 1e-6, True), (1 / 60**2 + 1e-6, False), (-1e-6, False)],
        ids=["at-root", "inside-width", "above-width", "below-root"],
    )
    def test_moved_rho_fails_sandwich(self, monkeypatch, capsys, offset, ok):
        # the default sandwich (n = 60, width 1/n^2) with rho(G) read as
        # rho(B_delta) + offset: it passes on [0, 1/n^2) only
        rho_b = run_sandwich()["rho_quotient"]

        def moved(g, tol=1e-10):
            return replace(perron(g, tol), rho=rho_b + offset)

        monkeypatch.setattr(suites, "perron", moved)
        code, out, _ = run(capsys, "verify", "sandwich")
        assert (code, json.loads(out)["pass"]) == (0 if ok else 1, ok)

    def test_sandwich_cli_with_profile_file(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"type1": 25, "type2": [1, 1], "type3": [3]}))
        code, out, _ = run(
            capsys, "verify", "sandwich", "--n-min", "60", "--delta", "5",
            "--profile", str(prof),
        )
        assert code == 0
        assert json.loads(out)["pass"]


# each parsed as a different profile before counts had to be JSON integers
# and unknown keys were rejected
_MISTYPED_PROFILES = [
    {"type1": "25", "type2": [1.9, 1.2], "type3": [3.7]},
    {"typo3": [4]},
    {"type1": True},
]


def _signs_moved(rows):
    """`suites._sign_table` with the expected sign of each row in rows moved."""
    real = suites._sign_table

    def moved(n):
        table = real(n)
        for row in rows:
            check, sign, p, point, q = table[row]
            table[row] = (check, -sign or 1, p, point, q)
        return table

    return moved


class TestSignAndIdentityControls:
    """Every row of the sign table and every closing identity holds at every
    order, so stdout alone cannot show that a check still decides anything:
    each fails, by its name, when one expected sign or one coefficient is
    moved."""

    @pytest.mark.parametrize("row", range(len(suites._sign_table(59))))
    def test_moved_sign_fails_its_row(self, monkeypatch, capsys, row):
        name = suites._sign_table(59)[row][0]
        monkeypatch.setattr(suites, "_sign_table", _signs_moved([row]))
        code, out, _ = run(capsys, "verify", "signs", "--n-min", "59", "--n-max", "60")
        assert code == 1
        assert [(r["check"], r["n"]) for r in json.loads(out)["failures"]] == [(name, 59), (name, 60)]

    @staticmethod
    def move_constant_term(monkeypatch, which, n, delta=None):
        """Patch `suites.named_quotient` so that the closed form of (which,
        n, delta) has its constant term one higher."""
        real = suites.named_quotient
        target = (which, n, real(which, n, delta).delta)

        def moved(name, order, d=None):
            nq = real(name, order, d)
            if (name, order, nq.delta) != target:
                return nq
            c = nq.closed_form.coeffs
            return replace(nq, closed_form=IntPolynomial((c[0] + 1,) + c[1:]))

        monkeypatch.setattr(suites, "named_quotient", moved)

    @pytest.mark.parametrize(
        "which, n, delta, names",
        [
            # B2 and B1 each enter two identities, and neither is in the n3
            # table at these orders; B_d1 enters one
            ("B2", 60, None, ["identity:lamP_dd-f2", "identity:P_n41-f2"]),
            ("B1", 59, None, ["identity:lamP_dd-f1", "identity:P_31-f1"]),
            ("B_d1", 59, 55, ["identity:P_n41-f2"]),
            ("B_d1", 59, 3, ["identity:P_31-f1"]),
        ],
        ids=["lamP_dd-f2", "lamP_dd-f1", "P_n41-f2", "P_31-f1"],
    )
    def test_moved_coefficient_fails_its_identity(self, monkeypatch, capsys, which, n, delta, names):
        self.move_constant_term(monkeypatch, which, n, delta)
        code, out, _ = run(capsys, "verify", "theorem-n3", "--n-min", str(n), "--n-max", str(n))
        assert code == 1
        [record] = json.loads(out)["failures"]
        assert (record["check"], record["n"], record["witness"]) == ("family_ordering", n, names)

    def test_moved_tie_fails_n2_tie(self, monkeypatch, capsys):
        # at even n, G(n, 2) and G(n, n-4) tie through equal closed forms
        self.move_constant_term(monkeypatch, "A_delta", 60, 56)
        code, out, _ = run(capsys, "verify", "theorem-n3", "--n-min", "60", "--n-max", "60")
        assert code == 1
        [record] = json.loads(out)["failures"]
        assert (record["check"], record["n"], record["witness"]) == ("family_ordering", 60, ["n2:f(2)!=f(n-4)"])


def per_n_sign_failures(n_min, n_max, table):
    """The failure records of every row of `table(n)` at every n in [n_min,
    n_max], n-major, each value p(a/b) - q/b^4 taken in `Fraction`s."""
    records = []
    for n in range(n_min, n_max + 1):
        for check, sign, p, (a, b), q in table(n):
            value = sum(c * Fraction(a, b) ** i for i, c in enumerate(p.coeffs)) - Fraction(q, b**p.degree)
            if (value > 0) - (value < 0) != sign:
                records.append({"check": check, "n": n, "witness": str(value)})
    return records


class TestSignCertificate:
    """`run_verify_signs` settles each row of the sign table for every n >=
    n_min from its forward differences at n_min; the per-n loop of
    `per_n_sign_failures` is its oracle."""

    DEGREES = [8, 1, 4, 12, 12, 2, 2]  # the seven sign rows; the three identities vanish

    def test_row_degrees_in_n(self, monkeypatch):
        # each row's value b^4 * p(a/b) - q in sympy, in a symbol n, with the
        # closed forms of `families._FORMS` at each name's fixed delta; it is
        # a polynomial in n, and it agrees with the row at three orders
        n, t = sympy.symbols("n t")

        def symbolic(which, order, delta=None):
            coeffs = families._FORMS[which](order, families.FIXED_DELTA[which][1](order))[1]
            return SimpleNamespace(closed_form=SimpleNamespace(coeffs=coeffs, degree=len(coeffs) - 1))

        monkeypatch.setattr(suites, "named_quotient", symbolic)
        polys = []
        for check, sign, p, (a, b), q in suites._sign_table(n):
            quartic = sympy.Poly(list(reversed(p.coeffs)), t).as_expr()
            num, den = sympy.fraction(sympy.cancel(quartic.subs(t, sympy.sympify(a) / b) * b**p.degree - q))
            assert den == 1, check
            polys.append(sympy.Poly(num, n))
        monkeypatch.undo()
        for order in (59, 1000, 20000):
            rows = suites._sign_table(order)
            assert [poly.eval(order) for poly in polys] == [scaled_value(p.coeffs, x) - q for _, _, p, x, q in rows]
        degrees = [None if poly.is_zero else poly.degree() for poly in polys]
        assert degrees == self.DEGREES + [None] * 3
        assert max(self.DEGREES) <= suites.SIGN_DEGREE

    @pytest.mark.parametrize(
        "row, point, q",
        [
            # q = n^21 on the identity g(t2) closed form
            (9, suites._T2, IntPolynomial((0,) * 21 + (1,))),
            # a = n^5 at t1: 4 + 4 * 5 = 24 for the closed-form coefficients of degree <= 4
            (3, (IntPolynomial((0,) * 5 + (1,)), suites._T1[1]), suites._ZERO),
        ],
        ids=["q-of-degree-21", "point-of-degree-5"],
    )
    def test_row_past_the_degree_bound_is_refused(self, monkeypatch, row, point, q):
        rows = list(suites._SIGN_ROWS)
        check, sign, name, _, _ = rows[row]
        rows[row] = (check, sign, name, point, q)
        monkeypatch.setattr(suites, "_SIGN_ROWS", rows)
        with pytest.raises(AssertionError, match=re.escape(f"sign row {check} may have degree above 20")):
            run_verify_signs(59, 60)

    @pytest.mark.parametrize("n_min, n_max", [(59, 500), (60, 81), (60, 82), (100, 150), (59, 2000)])
    def test_matches_the_per_n_loop(self, n_min, n_max):
        result = run_verify_signs(n_min, n_max)
        assert result["failures"] == per_n_sign_failures(n_min, n_max, suites._sign_table) == []
        assert result["checks_per_n"] == 10

    @pytest.mark.parametrize("row", range(10))
    def test_moved_sign_fails_at_every_order(self, monkeypatch, capsys, row):
        moved = _signs_moved([row])
        monkeypatch.setattr(suites, "_sign_table", moved)
        code, out, _ = run(capsys, "verify", "signs", "--n-min", "59", "--n-max", "500")
        failures = json.loads(out)["failures"]
        assert code == 1
        name = moved(59)[row][0]
        assert [(r["check"], r["n"]) for r in failures] == [(name, n) for n in range(59, 501)]
        assert failures == per_n_sign_failures(59, 500, moved)

    def test_two_moved_rows_fail_n_major(self, monkeypatch):
        moved = _signs_moved([7, 1])
        monkeypatch.setattr(suites, "_sign_table", moved)
        failures = run_verify_signs(59, 500)["failures"]
        names = [row[0] for row in moved(59)]
        assert [(r["check"], r["n"]) for r in failures] == [(names[i], n) for n in range(59, 501) for i in (1, 7)]
        assert failures == per_n_sign_failures(59, 500, moved)

    @pytest.mark.parametrize(
        "row, added, first",
        [
            # exact at the 21 orders 59..79, with a nonzero 21st difference
            (9, lambda n: prod(n - 59 - j for j in range(suites.SIGN_DEGREE + 1)), 80),
            # exact at 59 and 60, with a nonzero second difference
            (7, lambda n: (n - 59) * (n - 60), 61),
            # 5n - 17 - 5(n - 59)^2 is positive at 59..66 and its second
            # difference is negative
            (1, lambda n: 5 * (n - 59) ** 2, 67),
            # adds C(k, 21) - C(k, 22) at k = n - 59: the differences up to the
            # 21st are >= 0, so only the degree guard (a nonzero 21st
            # difference) sends the row back to the loop
            (1, lambda n: comb(n - 59, 22) - comb(n - 59, 21), 103),
        ],
        ids=["identity-past-the-degree-bound", "identity-off-late", "sign-turning-late", "sign-past-the-degree-bound"],
    )
    def test_perturbed_row_falls_back(self, monkeypatch, row, added, first):
        real = suites._sign_table

        def raised(n):
            table = real(n)
            check, sign, p, point, q = table[row]
            table[row] = (check, sign, p, point, q + added(n))
            return table

        monkeypatch.setattr(suites, "_sign_table", raised)
        failures = run_verify_signs(59, 500)["failures"]
        assert [(r["check"], r["n"]) for r in failures] == [(real(59)[row][0], n) for n in range(first, 501)]
        assert failures == per_n_sign_failures(59, 500, raised)


# the delta each order-n table lists, written out as the tables were before
# `admissible_deltas` gave a range
TABLE_DELTAS = {
    "A_delta": lambda n: [d for d in range(2, n - 2) if d % 2 == 0],
    "B_delta": lambda n: [d for d in range(3, n - 4) if (n + d) % 2 == 1],
    "B_dd": lambda n: list(range(4, n - 3)),
    "B_d1": lambda n: [d for d in range(3, n - 3) if d % 2 == 1],
}


def per_delta_ordering(n, quotient=named_quotient):
    """`check_family_ordering(n)` decided one delta at a time, with the
    closed forms of `quotient(which, n, delta)`: a member loses when
    `roots_below` puts it under the double below the winner's root, or else
    when `compare_max_real_roots` puts its root below the winner's."""

    def closed_form(which, d):
        return quotient(which, n, d).closed_form

    def beaten(winner, members):
        root = max_real_root(winner)
        sep = nextafter(root, -inf)
        bad = []
        for name, d in members:
            poly = closed_form(name, d)
            if not roots_below(poly, sep) and compare_max_real_roots(poly, winner) >= 0:
                label = name if d is None else f"{name}({d})"
                bad.append(f"{label}: root {max_real_root(poly):.12f} !< {root:.12f}")
        return bad

    tops = suites.n2_winners(n)
    win = closed_form("A_delta", tops[0])
    bad = [] if closed_form("A_delta", tops[-1]) == win else ["n2:f(2)!=f(n-4)"]
    bad += ["n2:" + v for v in beaten(win, [("A_delta", d) for d in TABLE_DELTAS["A_delta"](n) if d not in tops])]
    if n >= 59:
        winner = closed_form("B1" if n % 2 == 0 else "B2", None)
        rest = [("B_n5", None)] + [(name, d) for name in ("B_delta", "B_dd", "B_d1") for d in TABLE_DELTAS[name](n)]
        bad += ["n3:" + v for v in beaten(winner, rest)]
        bad += suites._final_comparison_identities(n)
    return bad


class TestProgressionCertificate:
    """`check_family_ordering` settles each family's whole progression of
    delta with one `progression_below` certificate; the per-delta loop of
    `per_delta_ordering` is its oracle."""

    # 11507 is the least order where a progression is not settled at once:
    # the roots of B_n5 and B_delta(n-5) lie within two doubles of B2's, so
    # B_delta's progression is halved down to its last members
    @pytest.mark.parametrize("n", [*range(5, 131), 299, 300, 1000, 5000, 11507])
    def test_matches_the_per_delta_loop(self, n):
        for which, deltas in TABLE_DELTAS.items():
            assert list(admissible_deltas(which, n)) == deltas(n), which
        assert check_family_ordering(n) == per_delta_ordering(n)

    def test_a_dip_between_two_deltas_falls_back(self, monkeypatch):
        # B_dd's constant term plus n^3 (delta - 4)(delta - 56) at n = 60:
        # still quadratic in delta, zero at both ends of the progression
        # 4..56, and far below zero between them, so each shifted constant
        # term is positive at both ends and dips below zero at the vertex
        n, lo, hi = 60, 4, 56

        def dipped(which, order, delta=None):
            nq = named_quotient(which, order, delta)
            if which != "B_dd":
                return nq
            c = nq.closed_form.coeffs
            return replace(nq, closed_form=IntPolynomial((c[0] + order**3 * (delta - lo) * (delta - hi),) + c[1:]))

        sep = nextafter(max_real_root(named_quotient("B1", n).closed_form), -inf)
        first = [dipped("B_dd", n, d).closed_form for d in (lo, lo + 1, lo + 2)]
        assert roots_below(dipped("B_dd", n, lo).closed_form, sep)
        assert roots_below(dipped("B_dd", n, hi).closed_form, sep)
        assert not progression_below(first, hi - lo + 1, sep)
        monkeypatch.setattr(suites, "named_quotient", dipped)
        bad = check_family_ordering(n)
        assert bad == per_delta_ordering(n, dipped)
        assert [v.split("(")[0] for v in bad] == ["n3:B_dd"] * (hi - lo - 1)


class TestMistypedProfile:
    """A mistyped profile file is a usage error, not a different graph."""

    @pytest.mark.parametrize("profile", _MISTYPED_PROFILES)
    def test_sandwich(self, tmp_path, capsys, profile):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(profile))
        code, out, err = run(
            capsys, "verify", "sandwich", "--n-min", "60", "--delta", "5", "--profile", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error: malformed profile")

    @pytest.mark.parametrize("profile", _MISTYPED_PROFILES)
    def test_construct(self, tmp_path, capsys, profile):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(profile))
        code, out, err = run(
            capsys, "construct", "--family", "profile", "--n", "9", "--delta", "4",
            "--profile", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error: malformed profile")


class TestCompareFamilies:
    def test_table_shape(self):
        rows = family_table(61)
        n3 = [r for r in rows if r["table"] == "n3"]
        assert n3[0]["family"] == "B2" and n3[0]["rank"] == 1
        n2 = [r for r in rows if r["table"] == "n2"]
        assert n2[0]["family"] == "A_delta" and n2[0]["delta"] == 58

    def test_even_table_winner(self):
        rows = family_table(60)
        n3 = [r for r in rows if r["table"] == "n3"]
        assert n3[0]["family"] == "B1"

    def test_ordering_certified(self):
        assert check_family_ordering(60) == []
        assert check_family_ordering(61) == []

    @pytest.mark.parametrize("n", [300, 301])
    def test_every_row_is_sympys_rounded_root(self, monkeypatch, n):
        # sympy isolates each row's largest root above rho - 1 and refines it
        # to 2^-70, where both ends round to one double; at most three rows
        # miss the families' one-root certificate
        fallbacks = []
        monkeypatch.setattr(intpoly, "max_real_root", lambda p: fallbacks.append(p) or max_real_root(p))
        rows = family_table(n)
        assert len(fallbacks) <= 3
        x = sympy.Symbol("x")
        for r in rows:
            poly = sympy.Poly(list(reversed(named_quotient(r["family"], n, r["delta"]).closed_form.coeffs)), x)
            lo, hi = poly.intervals(inf=int(r["rho"]) - 1)[-1][0]
            lo, hi = poly.refine_root(lo, hi, eps=sympy.Rational(1, 2**70))
            assert int(lo.p) / int(lo.q) == r["rho"] == int(hi.p) / int(hi.q), r

    def test_small_n_table(self):
        rows = family_table(9)
        assert all(r["table"] == "n2" for r in rows)
        assert rows[0]["delta"] == 6  # odd order: largest even block wins
        assert check_family_ordering(9) == []

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compare-families", "--n", "61", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,table,family,delta,rho,rank"
        assert len(lines) > 50

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "compare-families", "--n", "60")
        _, out2, _ = run(capsys, "compare-families", "--n", "60")
        assert out1 == out2


class TestExitCodeContract:
    """0 = pass, 1 = verification failure, 2 = usage error, no tracebacks."""

    def test_signs_explicit_zero_n_min(self, capsys):
        code, out, err = run(capsys, "verify", "signs", "--n-min", "0", "--n-max", "60")
        assert (code, out, err) == (2, "", "usage error: signs suite needs 59 <= n_min <= n_max\n")

    def test_lemmas_negative_trials(self, capsys):
        code, out, err = run(capsys, "verify", "lemmas", "--trials", "-3")
        assert (code, out, err) == (2, "", "usage error: lemmas suite needs trials >= 0\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare-families", "--n", "4"], "compare-families needs n >= 5"),
            (["verify", "theorem-n2", "--n-min", "4"], f"theorem-n2 needs 5 <= n_min <= n_max <= {EXHAUSTIVE_MAX_N}"),
            (["verify", "theorem-n3", "--n-min", "70", "--n-max", "60"], "theorem-n3 needs 59 <= n_min <= n_max"),
            (["verify", "sandwich", "--n-min", "58"], "sandwich suite needs n >= 59"),
            (["verify", "sandwich", "--n-min", "60", "--delta", "56"], "sandwich suite needs 3 <= delta <= n-5"),
        ],
    )
    def test_suite_range_messages(self, argv, message, capsys):
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")

    def test_sandwich_profile_without_type_ii(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"type1": 27}))
        assert run(capsys, "verify", "sandwich", "--n-min", "60", "--delta", "5", "--profile", str(prof)) == (
            2,
            "",
            "usage error: sandwich profile needs at least one type-II component\n",
        )

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["verify", "sandwich", "--n-max", "100"], "--n-max"),
            (["verify", "signs", "--trials", "5"], "--trials"),
            (["verify", "lemmas", "--n-min", "70"], "--n-min"),
            (["verify", "theorem-n2", "--delta", "3", "--seed", "4"], "--delta, --seed"),
        ],
    )
    def test_verify_refuses_unread_flags(self, argv, unread, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: verify {argv[1]} does not read {unread}\n"

    def test_enumerate_beyond_capability(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "10", "--max-degree", "8")
        assert code == 2
        assert "usage error" in err

    def test_failed_checkpoint_write_keeps_emit_file(self, tmp_path, capsys, monkeypatch):
        # every line is built before --emit is opened for writing
        emit, path = tmp_path / "old.g6", tmp_path / "ck"

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        emit.write_bytes(b"F??}O\n")
        monkeypatch.setattr(os, "replace", failing_replace)
        code, out, _ = run(
            capsys, "enumerate", "--n", "7", "--max-degree", "5", "--emit", str(emit), "--checkpoint", str(path)
        )
        assert (code, out) == (2, "")
        assert emit.read_bytes() == b"F??}O\n"
        assert list(tmp_path.iterdir()) == [emit]

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--family", "g", "--n", "100000000", "--delta", "2"],
            ["construct", "--family", "h1", "--n", str(MAX_N + 2)],
            ["verify", "sandwich", "--n-min", "100000000"],
        ],
    )
    def test_family_order_beyond_capability(self, argv, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert err == f"usage error: family graphs capped at n={MAX_N}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-families", "--n", "1000000000000"],
            ["verify", "theorem-n3", "--n-min", "1000000000", "--n-max", "1000000000"],
            ["verify", "theorem-n3", "--n-min", "59", "--n-max", str(QUOTIENT_MAX_N + 1)],
            ["verify", "signs", "--n-min", "59", "--n-max", str(QUOTIENT_MAX_N + 1)],
        ],
    )
    def test_quotient_order_beyond_capability(self, argv, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert err == f"usage error: quotient tables capped at n={QUOTIENT_MAX_N}\n"

    @pytest.mark.parametrize("fmt", ["json", "graph6"])
    @pytest.mark.parametrize("command", ["spectrum", "quotient"])
    def test_graph_file_beyond_capability(self, fmt, command, tmp_path, capsys):
        # a path on MAX_N + 1 vertices is refused once its vertex
        # count is read, before a row or a dense matrix is built
        n = MAX_N + 1
        path = tmp_path / "path.txt"
        if fmt == "json":
            path.write_text(json.dumps({"n": n, "edges": [[v, v + 1] for v in range(n - 1)]}))
        else:
            # column c of the upper triangle holds rows 0..c-1; only (c-1, c) is set
            path.write_bytes(_g6_pack(n, "".join("0" * (c - 1) + "1" for c in range(1, n))))
        cells = tmp_path / "cells.json"
        cells.write_text(json.dumps([list(range(n))]))
        argv = ["--in", str(path)] + (["--partition", str(cells)] if command == "quotient" else [])
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: vertex count {n} outside [1, {MAX_N}]")

    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 3, "edges": [[0, True], [True, 2]]},
            {"n": 3, "edges": [[0, 1], [1, 2]], "loops": [False]},
        ],
    )
    def test_spectrum_bool_vertex(self, graph, tmp_path, capsys):
        # JSON true and false are not the vertices 1 and 0
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        code, out, err = run(capsys, "spectrum", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_quotient_bool_vertex(self, tmp_path, capsys):
        (tmp_path / "g.g6").write_text(graph6_encode(Graph.build(3, [(0, 1), (1, 2)])))
        (tmp_path / "cells.json").write_text("[[true, 0], [2]]")
        argv = ["quotient", "--in", str(tmp_path / "g.g6"), "--partition", str(tmp_path / "cells.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_spectrum_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        code, _, err = run(capsys, "spectrum", "--in", str(path))
        assert code == 2
        assert "empty graph6" in err

    def test_spectrum_unreachable_tol(self, tmp_path, capsys):
        # the float64 residual floor of a dense 300-vertex graph is above 1e-14
        path = tmp_path / "gnp.g6"
        path.write_text(graph6_encode(random_connected_graph(random.Random(0), 300, 0.5)))
        code, out, err = run(capsys, "spectrum", "--in", str(path), "--tol", "1e-14")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("verification failure: ")


# -- fuzzing the graph-file commands -----------------------------------------

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_small_ints = st.integers(-2, 14) | st.booleans()


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return Graph.build(n, [e for e in pairs if draw(st.booleans())])


@st.composite
def _truncated_graph6(draw):
    line = graph6_encode(draw(_graphs()))
    return line[: draw(st.integers(0, max(0, len(line) - 1)))].encode()


_graph_files = st.one_of(
    st.binary(max_size=64),
    _truncated_graph6(),
    _graphs().map(lambda g: graph6_encode(g).encode()),
    st.fixed_dictionaries(
        {},
        optional={
            "n": _small_ints | _json_values,
            "edges": st.lists(st.lists(_small_ints, max_size=3), max_size=4) | _json_values,
            "loops": st.lists(_small_ints, max_size=3) | _json_values,
        },
    ).map(lambda d: json.dumps(d).encode()),
)
_partition_files = st.one_of(
    st.binary(max_size=32),
    st.lists(st.lists(_small_ints, max_size=5), max_size=5).map(lambda c: json.dumps(c).encode()),
    _json_values.map(lambda v: json.dumps(v).encode()),
)
_profile_files = st.one_of(
    st.binary(max_size=32),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries(
        {},
        optional={
            "type1": st.integers(-2, 60) | _json_values,
            "type2": st.lists(st.integers(-1, 6), max_size=3) | _json_values,
            "type3": st.lists(st.integers(-1, 6), max_size=3) | _json_values,
        },
    ).map(lambda d: json.dumps(d).encode()),
)


class TestFuzzExitCodeContract:
    """Random, truncated and malformed graph, partition and profile files:
    `main` returns 0, 1 or 2 and never raises."""

    @settings(max_examples=80, deadline=None)
    @given(graph=_graph_files)
    def test_spectrum(self, tmp_path_factory, graph):
        path = tmp_path_factory.mktemp("spectrum") / "g"
        path.write_bytes(graph)
        assert main(["spectrum", "--in", str(path)]) in (0, 1, 2)

    @settings(max_examples=80, deadline=None)
    @given(graph=_graph_files, cells=_partition_files)
    def test_quotient(self, tmp_path_factory, graph, cells):
        work = tmp_path_factory.mktemp("quotient")
        (work / "g").write_bytes(graph)
        (work / "cells").write_bytes(cells)
        argv = ["quotient", "--in", str(work / "g"), "--partition", str(work / "cells")]
        assert main(argv) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(profile=_profile_files)
    def test_sandwich_profile(self, tmp_path_factory, profile):
        path = tmp_path_factory.mktemp("sandwich") / "profile"
        path.write_bytes(profile)
        assert main(["verify", "sandwich", "--profile", str(path)]) in (0, 1, 2)


# -- fuzzing the other subcommands and flags ---------------------------------


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


_orders = st.integers(-2, 70)


@st.composite
def _windows(draw, lo, hi):
    """--n-min/--n-max in [lo, hi], at most 3 apart, sometimes inverted."""
    n_min = draw(st.integers(lo, hi))
    n_max = draw(st.integers(max(lo, n_min - 1), min(hi, n_min + 3)))
    return ["--n-min", str(n_min), "--n-max", str(n_max)]


class TestFuzzCommandLine:
    """Random orders, degrees, windows and counts on every other subcommand:
    `main` returns 0, 1 or 2 and never raises.

    The bounds keep the run time down: `verify theorem-n2` at n = 9
    legitimately takes minutes, `signs` and `theorem-n3` cost time per order,
    and `lemmas` sweeps families whatever --trials is. They are not chosen
    to avoid a known defect.
    """

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(FAMILY_TAGS), n=_orders, delta=st.none() | _orders)
    def test_construct(self, family, n, delta):
        argv = ["construct", "--family", family, "--n", str(n)]
        if delta is not None:
            argv += ["--delta", str(delta)]
        assert _quiet_main(argv) in (0, 1, 2)

    @settings(max_examples=25, deadline=None)
    @given(n=_orders, fmt=st.sampled_from(["json", "csv"]))
    def test_compare_families(self, n, fmt):
        assert _quiet_main(["compare-families", "--n", str(n), "--format", fmt]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(-2, 6), max_degree=st.integers(-2, 6))
    def test_enumerate(self, n, max_degree):
        assert _quiet_main(["enumerate", "--n", str(n), "--max-degree", str(max_degree)]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(suite=st.sampled_from(["signs", "theorem-n3"]), window=_windows(0, 70))
    def test_verify_windows(self, suite, window):
        assert _quiet_main(["verify", suite, *window]) in (0, 1, 2)

    @settings(max_examples=20, deadline=None)
    @given(window=_windows(-2, 6))
    def test_verify_theorem_n2(self, window):
        assert _quiet_main(["verify", "theorem-n2", *window]) in (0, 1, 2)

    @settings(max_examples=8, deadline=None)
    @given(trials=st.integers(-3, 2), seed=st.integers(0, 2**32))
    def test_verify_lemmas(self, trials, seed):
        assert _quiet_main(["verify", "lemmas", "--trials", str(trials), "--seed", str(seed)]) in (0, 1, 2)
