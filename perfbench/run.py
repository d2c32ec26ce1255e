"""specmax benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It byte-compiles `src` and `perfbench`,
then drives two worker processes call by call, both pinned to one CPU: the
checkout's specmax and the pinned copy in `perfbench/pinned`. Every CLI call
of a pass runs on both, back to back, in alternating order, and every output
is checked. Times are reported relative to the pinned copy measured in the
same seconds, so a slow spell of a shared machine cancels out; see README.md.
With `--trace 1` only the checkout's specmax runs, alternating plain and
traced passes, and the result holds the per-layer metrics.

The next-to-last line of stdout is a report (machine, raw times, failed
checks, layer shares); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from tracing import METRICS
from workloads import NAMES, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned"
SETUP_PAIRS = 7
DEADLINE_S = 170  # the whole run ends well inside 180 s

# What the pinned copy takes on each workload on the machine the benchmark
# was calibrated on (2-vCPU Xeon, Python 3.11, numpy 2.4): the median of its
# pass time and of its set-up. `wall_s` and `setup_s` are the checkout's time
# as a multiple of the pinned copy's time in the same run, times these.
PINNED_S = {
    "exhaustive": {"wall_s": 1.74, "setup_s": 0.128},
    "ordering": {"wall_s": 3.22, "setup_s": 0.126},
    "certificates": {"wall_s": 3.24, "setup_s": 0.171},
}

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Self-time shares of the layers each workload was designed around, from a
# profile taken before the benchmark existed. A measured share more than
# 0.15 away is flagged in the report.
PROBE_SHARES = {
    "exhaustive": {"graphs": 0.89, "spectral": 0.06},
    "ordering": {"intpoly": 0.97},
    "certificates": {"spectral": 0.60},
}


class Worker:
    """A running worker.py, spoken to one JSON line at a time."""

    def __init__(self, cmd: list[str], env: dict, err: Path, deadline: float):
        self.deadline = deadline
        self.err = err
        with open(err, "w") as fh:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=fh,
            )

    def read(self) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise TimeoutError("a worker did not answer before the deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"a worker exited: {self.err.read_text()[-2000:]}")
        return json.loads(line)

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the worker is gone already
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def machine(cpu: int) -> dict:
    name = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            name = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), name)
    except OSError:
        pass
    return {
        "cpu": name,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_to_cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": 1,
    }


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "specmax" / "cli.py").is_file():
        return fail(f"no specmax sources under {ROOT / 'src'}; run from a checkout of the repository")
    # Both workers share one CPU, so BLAS gets one thread: the cap is the
    # number of CPUs the work may use.
    cpu = max(os.sched_getaffinity(0))
    blas = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    packages = {"current": ROOT / "src", "pinned": PINNED}
    envs = {name: dict(os.environ, PYTHONPATH=str(pkg), **blas) for name, pkg in packages.items()}
    # The build: byte-compile once, so no timed import compiles anything.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def command(name: str, out: Path, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--work", str(out), "--package",
                str(packages[name]), "--cpu", str(cpu), *extra]

    names = ["current"] if args.trace else ["current", "pinned"]
    setups: dict[str, list[float]] = {name: [] for name in names}
    walls: dict[str, list[list[float]]] = {name: [] for name in names}  # per pass, per call
    traced_walls: list[float] = []
    workers: dict[str, Worker] = {}
    try:
        for k in range(SETUP_PAIRS):
            for name in names if k % 2 == 0 else names[::-1]:
                out = work / f"setup-{name}-{k}"
                proc = subprocess.run(command(name, out, "--setup-only"), cwd=ROOT, env=envs[name],
                                      timeout=60, capture_output=True, text=True, check=True)
                setups[name].append(json.loads(proc.stdout)["setup_s"])
                shutil.rmtree(out)
        for name in names:
            workers[name] = Worker(command(name, work / name), envs[name],
                                   work / f"{name}.err", deadline)
        calls = [w.read()["calls"] for w in workers.values()][0]
        begin = time.monotonic()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            for w in workers.values():
                w.ask(op="pass", k=k, traced=traced)
            row: dict[str, list[float]] = {name: [] for name in names}
            for i in range(len(calls)):
                for name in names if (k + i) % 2 == 0 else names[::-1]:
                    row[name].append(workers[name].ask(op="step", i=i)["s"])
            for w in workers.values():
                w.ask(op="end_pass")
            if traced:
                traced_walls.append(sum(row["current"]))
            else:
                for name in names:
                    walls[name].append(row[name])
            k += 1
            last = sum(map(sum, row.values()))
            if (traced_walls or not args.trace) and time.monotonic() - begin + last > args.seconds:
                break
        res = {name: w.ask(op="finish") for name, w in workers.items()}
    except (OSError, TimeoutError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        for w in workers.values():
            w.close()

    cur = res["current"]
    checks = Checks()
    checks.attempted, checks.failed = cur["attempted"], list(cur["failed"])
    if args.workload == "exhaustive":
        try:
            oracles.exhaustive(checks, work / "current", cur["kept"])
        except Exception as exc:  # an output the oracle cannot read is a failed check
            checks("oracle: output readable", False, repr(exc))
    if "pinned" in res:
        checks("pinned copy: every check held", not res["pinned"]["failed"],
               str(res["pinned"]["failed"][:3]))

    plain = [sum(p) for p in walls["current"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(cpu) | {"numpy": cur["numpy"]},
        "passes": len(plain),
        "wall_s_passes": plain,
        "call_median_s": [[c, statistics.median(col)] for c, col in zip(calls, zip(*walls["current"]))],
        "setup_s_samples": setups["current"],
        "failed_share": len(checks.failed) / checks.attempted,
        "failed_checks": checks.failed[:20],
    }
    if args.trace:
        layers = dict(cur["layers"])
        layers["trace_overhead"] = statistics.median(traced_walls) / statistics.median(plain)
        shares = cur["shares"]
        report.update(
            traced_wall_s=traced_walls,
            layer_shares=shares,
            probe_disagrees={
                layer: {"probe": p, "measured": round(shares.get(layer, 0.0), 3)}
                for layer, p in PROBE_SHARES[args.workload].items()
                if abs(shares.get(layer, 0.0) - p) > 0.15
            },
            dropped=cur["dropped"],
            spans=str((work / "current" / "spans.json").relative_to(ROOT)),
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in METRICS}
    else:
        # Each pass's time over the pinned copy's time for the same calls,
        # run back to back; then the median over passes (and set-up pairs).
        pass_ratios = [sum(a) / sum(b) for a, b in zip(walls["current"], walls["pinned"])]
        wall_ratio = statistics.median(pass_ratios)
        setup_ratio = statistics.median(a / b for a, b in zip(setups["current"], setups["pinned"]))
        e2e = {
            "wall_s": PINNED_S[args.workload]["wall_s"] * wall_ratio,
            "setup_s": PINNED_S[args.workload]["setup_s"] * setup_ratio,
            "peak_rss_mb": cur["peak_rss_mb"],
        }
        report.update(
            raw_s={
                "wall_s": statistics.median(plain),
                "pinned_wall_s": statistics.median(sum(p) for p in walls["pinned"]),
                "setup_s": statistics.median(setups["current"]),
                "pinned_setup_s": statistics.median(setups["pinned"]),
            },
            ratio={"wall": wall_ratio, "setup": setup_ratio, "wall_passes": pass_ratios},
        )
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    report["metrics"] = metrics
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
