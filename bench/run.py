"""The polycap benchmark: one command for every workload.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root. It writes the workload's documents for the
seed under bench/_work/, measures the set-up time, runs the job list in one
worker process that calls polycap.cli.main in-process, checks every report,
and prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
peak_rss_mb); with --trace 1 the timed passes are traced and the metrics
are the per-layer ones of spans.py. See bench/README.md.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread, here and in every child process, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 9
# Every run ends within this many seconds, the worker included.
RUN_LIMIT_S = 170.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # An installed package imports from cached bytecode; let the children
    # write and use it whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _timed_run(cmd, env) -> float:
    """Wall time of one child process. The wait blocks instead of polling
    (subprocess polls in steps of up to 50 ms when given a timeout); a timer
    kills a child that hangs."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{cmd} exited with {code}")
    return elapsed


def setup_seconds(env) -> float:
    """Median wall time of a fresh interpreter importing polycap.cli, which
    every CLI invocation pays. One untimed import first writes bytecode."""
    cmd = [sys.executable, "-c", "import polycap.cli"]
    _timed_run(cmd, env)
    return statistics.median(_timed_run(cmd, env) for _ in range(SETUP_RUNS))


def main(argv=None) -> int:
    import checks
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "polycap" / "cli.py").is_file():
        print(f"error: no polycap sources at {SRC}", file=sys.stderr)
        return 2

    # One directory per workload and mode: a run replaces the last one's
    # documents and trace instead of piling them up.
    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed, work / "docs")
    (work / "jobs.json").write_text(json.dumps([job.argv for job in jobs]))

    env = _child_env()
    setup = None if args.trace else setup_seconds(env)

    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "jobs.json"),
           str(work / "result.json"), str(args.seconds)]
    if args.trace:
        cmd.append(str(work / "trace.jsonl"))
    limit = RUN_LIMIT_S - (time.perf_counter() - began)
    proc = subprocess.run(cmd, env=env, timeout=limit)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    correct = result["mismatched"] == 0
    if not correct:
        print(f"{result['mismatched']} outputs differ from the first pass")
    for job, (code, out, err) in zip(jobs, result["first"]):
        if code != 0:
            print(f"FAILED {' '.join(job.argv)}: {code} {err.strip()}")
            continue
        errors = checks.check(job, json.loads(out))
        for error in errors:
            print(f"WRONG {' '.join(job.argv)}: {error}")
        correct = correct and not errors

    pass_s = statistics.median(result["times"])
    if args.trace:
        print(f"traced pass_s {pass_s:.4f} s over {len(result['times'])} passes")
        metrics = {name: {"value": statistics.median(p[name] for p in result["layers"]),
                          "unit": unit}
                   for name, unit, _, _ in spans.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": result["passes"] * len(jobs),
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
