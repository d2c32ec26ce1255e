"""One specmax under test, driven one CLI call at a time.

run.py starts this with PYTHONPATH set to the specmax it wants: the
checkout's `src`, or the pinned copy in `perfbench/pinned`. With
`--setup-only` it times the set-up and exits. Otherwise it answers one JSON
line on stdout for each JSON line on stdin:

    {"op": "pass", "k": 3, "traced": false}  ready pass k (fresh outputs)
    {"op": "step", "i": 0}                   run call i, check it -> {"s": secs}
    {"op": "end_pass"}                       close the pass
    {"op": "finish"}                         -> checks, memory, trace metrics

Every CLI call goes through `specmax.cli.main(argv)` with stdout and stderr
captured, so the protocol owns this process's stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def run_step(cli, step, checks) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    label = " ".join(step.argv[:2])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(step.argv)
    except Exception as exc:  # a traceback is a failed check, not a crash of the run
        checks(f"{label}: raised", False, repr(exc))
        return out.getvalue(), err.getvalue()
    checks(f"{label}: exit 0", rc == 0, f"rc={rc} {err.getvalue()[-200:]}")
    try:
        step.check(checks, out.getvalue(), err.getvalue())
    except Exception as exc:  # unreadable output
        checks(f"{label}: output readable", False, repr(exc))
    return out.getvalue(), err.getvalue()


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; ru_maxrss would still hold the peak of the
    parent that forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--package", required=True, help="directory specmax must come from")
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    # Set-up: import the package (numpy with it) and write the pass's inputs.
    t0 = time.perf_counter()
    import specmax.cli as cli

    import workloads

    plan = workloads.build(args.workload, args.seed, Path(args.work))
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(args.package).resolve()):
        raise SystemExit(f"specmax imported from {cli.__file__}, not from {args.package}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    from tracing import Tracer

    plan.prepare()
    checks = workloads.Checks()
    tracer = Tracer()
    traced = False
    kept: dict = {}
    wall = 0.0
    peak_mb = None

    def reply(**data) -> None:
        print(json.dumps(data), flush=True)

    reply(calls=[" ".join(Path(x).name if "/" in x else x for x in s.argv) for s in plan.steps])
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "pass":
            plan.reset(cmd["k"])
            traced = cmd["traced"]
            if traced:
                tracer.install()
                tracer.begin_pass()
            wall = 0.0
            reply()
        elif op == "step":
            step = plan.steps[cmd["i"]]
            t = time.perf_counter()
            out, err = run_step(cli, step, checks)
            dt = time.perf_counter() - t
            wall += dt
            if step.keep and step.keep not in kept:
                kept[step.keep] = {"out": out, "err": err}
            reply(s=dt)
        elif op == "end_pass":
            if traced:
                tracer.end_pass(wall)
                tracer.remove()
            if peak_mb is None:  # later passes reuse the first one's heap
                peak_mb = peak_rss_mb()
            reply()
        elif op == "finish":
            result = dict(
                setup_s=setup_s,
                peak_rss_mb=peak_mb,
                attempted=checks.attempted,
                failed=checks.failed,
                kept=kept,
                numpy=numpy.__version__,
            )
            if tracer.passes:
                layers, shares = tracer.metrics()
                result.update(layers=layers, shares=shares, dropped=tracer.dropped)
                tracer.write(Path(args.work) / "spans.json")
            reply(**result)
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
