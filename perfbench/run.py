"""Run one benchmark workload against the silk_ray CDC engine.

    python3 perfbench/run.py --workload catchup_merge --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Prints a human-readable table, a
``report:`` line with the host record and every extra figure, and as
the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. Metric names, units and
bounds are listed in BENCHMARK.json; README.md in this directory says
what each one means.

The measurement runs in a child process. Ray 2.49 can abort a driver on
a failed internal check (``An unexpected system state has occurred``);
when the child dies that way, its leftover processes are killed and the
run is made again once, with the same seed, and a ``ray_aborts:`` line
before the result says so.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD_ENV = "PERFBENCH_CHILD"
# the banner Ray prints when one of its internal checks fails
RAY_ABORT = "An unexpected system state has occurred"
MAX_RUNS = 2
# a rerun starts only this soon after the first, so both fit in 180 s
# on a loaded host (a catchup_link run took up to 91 s)
RERUN_BEFORE_S = 75.0
PR_SET_CHILD_SUBREAPER = 36


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs for the self-tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(CHECKOUT, "silk_ray", "cdc", "engine.py")):
        print(f"error: no silk_ray sources under {CHECKOUT}; run from a full checkout", file=sys.stderr)
        return 2
    # the checkout, not this directory, is the import root
    sys.path[0] = CHECKOUT
    # Ray workers import silk_ray from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (CHECKOUT, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if os.environ.get(CHILD_ENV) != "1":
        return supervise(sys.argv[1:] if argv is None else list(argv))

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), CHECKOUT, toy=args.toy)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    print(f"{res['workload']} seed={res['seed']} correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, v in res["extra"].items():
        print(f"  {name:40s} {v}")
    for err in res["errors"]:
        print(f"  error: {err}")
    report = {k: v for k, v in res.items() if k not in ("per_layer", "layer_table", "end_to_end")}
    print("report: " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def supervise(argv: list[str]) -> int:
    """Run the measurement in a child process; rerun it once if Ray
    aborted it. Returns the exit code of the last child."""
    from perfbench import probes

    # processes an aborted child leaves behind become ours, so they can
    # be killed and waited for
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    # on SIGTERM, unwind through the finally clause below, which kills
    # the child and everything it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = os.path.join(CHECKOUT, ".perfbench_work")
    # the child's output goes to files, not pipes: a process it leaves
    # behind could hold a pipe open for as long as it lives
    logs = os.path.join(work, f"supervisor-{os.getpid()}")
    os.makedirs(logs, exist_ok=True)
    out_path, err_path = os.path.join(logs, "stdout"), os.path.join(logs, "stderr")
    t0 = time.monotonic()
    aborts = []
    child = None
    try:
        for run in range(1, MAX_RUNS + 1):
            with open(out_path, "w") as out, open(err_path, "w") as err:
                child = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), *argv],
                    env=dict(os.environ, **{CHILD_ENV: "1"}),
                    stdout=out,
                    stderr=err,
                )
                rc = child.wait()
            probes.reap_children(timeout_s=5.0)
            # an aborted child leaves its scratch directory behind
            shutil.rmtree(os.path.join(work, str(child.pid)), ignore_errors=True)
            with open(out_path) as f:
                stdout = f.read()
            with open(err_path) as f:
                stderr = f.read()
            sys.stderr.write(stderr)
            if rc == 0 or RAY_ABORT not in stderr:
                break
            check = next(line for line in stderr.splitlines() if RAY_ABORT in line)
            aborts.append(check.split("Check failed:")[-1].strip()[:300])
            print(f"run {run}: Ray aborted the driver: {aborts[-1]}", file=sys.stderr)
            if run == MAX_RUNS or time.monotonic() - t0 > RERUN_BEFORE_S:
                break
    finally:
        probes.reap_children(timeout_s=0.0)
        if child is not None:
            shutil.rmtree(os.path.join(work, str(child.pid)), ignore_errors=True)
        shutil.rmtree(logs, ignore_errors=True)
    lines = stdout.splitlines(keepends=True)
    if aborts and rc == 0:
        lines.insert(len(lines) - 1, "ray_aborts: " + json.dumps({"count": len(aborts), "checks": aborts}) + "\n")
    sys.stdout.write("".join(lines))
    return rc


if __name__ == "__main__":
    sys.exit(main())
