"""Command-line front end: argparse, file reading and writing, JSON and
CSV output, and the exit codes over `specmax.suites`.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
JSON written to stdout is deterministic for fixed flags and seed; timing
and progress go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .enumeration import EnumSpec, enumerate_graphs
from .families import FAMILY_TAGS, ComplementProfile, build_family
from .graphs import CapabilityError, Graph, graph6_decode, graph6_encode
from .partition import quotient
from .spectral import ConvergenceError, perron, quotient_radii
from .suites import (
    run_compare_families,
    run_lemmas,
    run_sandwich,
    run_theorem_n2,
    run_theorem_n3,
    run_verify_signs,
)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- construct / spectrum / quotient / enumerate ---------------------------


def _load_profile(path: str) -> ComplementProfile:
    with open(path) as fh:
        return ComplementProfile.from_json(json.load(fh))


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        text = fh.read().strip()
    # '{' then '"' or whitespace is JSON: neither is a graph6 byte (63..126)
    if text[:1] == "{" and (text[1:2] == '"' or text[1:2].isspace()):
        return Graph.from_json(text)
    return graph6_decode(text.partition("\n")[0])


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    prof = _load_profile(args.profile) if args.profile else None
    line = graph6_encode(build_family(args.family, args.n, args.delta, prof))
    _write_text(args.out, line + "\n")
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
            "rho_quotient": quotient_radii([spec])[0],
        }
    )
    return 0


def cmd_enumerate(args) -> int:
    spec = EnumSpec(args.n, args.max_degree)
    # the text is built before --emit is opened: a failed checkpoint write leaves it whole
    text = "".join(line + "\n" for line in enumerate_graphs(spec, checkpoint=args.checkpoint))
    _write_text(args.emit, text)
    return 0


# each suite, and the flags it reads by the keyword it passes them as;
# `verify` refuses the other flags
VERIFY_SUITES = {
    "signs": (run_verify_signs, {"n_min": "n_min", "n_max": "n_max"}),
    "theorem-n2": (run_theorem_n2, {"n_min": "n_min", "n_max": "n_max"}),
    "theorem-n3": (run_theorem_n3, {"n_min": "n_min", "n_max": "n_max"}),
    "lemmas": (run_lemmas, {"trials": "trials", "seed": "seed"}),
    "sandwich": (run_sandwich, {"n_min": "n", "delta": "delta", "profile": "profile"}),
}


def cmd_verify(args) -> int:
    suite, reads = VERIFY_SUITES[args.suite]
    # the flags set on the command line; the suite's defaults fill the rest
    flags = ("n_min", "n_max", "delta", "profile", "trials", "seed")
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    unread = [f"--{flag.replace('_', '-')}" for flag in given if flag not in reads]
    if unread:
        raise ValueError(f"verify {args.suite} does not read {', '.join(unread)}")
    if "profile" in given:
        given["profile"] = _load_profile(given["profile"])
    t0 = time.time()
    result = suite(**{reads[flag]: value for flag, value in given.items()})
    _status(f"suite {args.suite} finished in {time.time() - t0:.2f}s")
    _emit(result)
    return 0 if result["pass"] else 1


def cmd_compare_families(args) -> int:
    result = run_compare_families(args.n)
    if args.fmt == "csv":
        print("n,table,family,delta,rho,rank")
        for r in result["rows"]:
            print(f"{r['n']},{r['table']},{r['family']},{r['delta']},{r['rho']:.12f},{r['rank']}")
    else:
        _emit(result)
    return 1 if result["violations"] else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="specmax")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family graph")
    c.add_argument("--family", required=True, choices=FAMILY_TAGS)
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
    v.add_argument("suite", choices=list(VERIFY_SUITES))
    v.add_argument("--n-min", type=int)
    v.add_argument("--n-max", type=int)
    v.add_argument("--delta", type=int)
    v.add_argument("--profile", help="JSON profile file (sandwich suite)")
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int)
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
