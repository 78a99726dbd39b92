"""Runs one workload's job list in this process through polycap.cli.main.

    python3 bench/worker.py JOBS.json RESULT.json SECONDS [TRACE.jsonl]

JOBS.json holds a list of CLI argument lists. The first pass warms up and
keeps every job's exit code and output for checking; timed passes follow
until SECONDS have gone by, and each must reproduce the first pass's exit
codes and reports.
With TRACE.jsonl the timed passes are traced (see spans.py): the result
holds the per-layer metrics of each traced pass and the spans of the first
traced pass are written to TRACE.jsonl.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_pass(main, jobs, rec=None):
    outputs = []
    for job_id, argv in enumerate(jobs):
        if rec is not None:
            rec.job = job_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        outputs.append([code, out.getvalue(), err.getvalue()])
    return outputs


def main(argv):
    jobs_path, result_path, seconds = argv[0], argv[1], float(argv[2])
    trace_path = argv[3] if len(argv) > 3 else None
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    import polycap.cli as cli

    first = run_pass(cli.main, jobs)
    rec = None
    if trace_path:
        import spans
        rec = spans.Recorder()
        spans.install(rec)

    times, layers = [], []
    passes, failed, mismatched = 1, sum(o[0] != 0 for o in first), 0
    deadline = time.perf_counter() + seconds
    while True:
        if rec is not None:
            rec.reset()
        start = time.perf_counter()
        outputs = run_pass(cli.main, jobs, rec)
        times.append(time.perf_counter() - start)
        passes += 1
        failed += sum(o[0] != 0 for o in outputs)
        # Exit code and report; stderr may differ, as Python prints a
        # warning only the first time a line raises it.
        mismatched += sum(a[:2] != b[:2] for a, b in zip(outputs, first))
        if rec is not None:
            layers.append(spans.layer_values(rec))
            if len(layers) == 1:
                rec.write_jsonl(trace_path, start)
        if time.perf_counter() >= deadline:
            break

    result = {
        "first": first,
        "times": times,
        "passes": passes,
        "failed": failed,
        "mismatched": mismatched,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
