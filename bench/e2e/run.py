#!/usr/bin/env python3
"""End-to-end benchmark of the walker service (see README.md).

Builds widx_e2e from the checkout's own sources, runs each requested
workload in a fresh process, and prints the result as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list, each with the unit BENCHMARK.json gives.
The full record of every run (all metrics, context, stream digest,
ungated percentiles) is written to the --out directory.

    python3 bench/e2e/run.py --workload tcp_lookup --seed 7 \
        --seconds 20 --trace 0
    python3 bench/e2e/run.py --smoke     # every workload, small sizes

Exit status: 0 when every run was correct, 1 when a run failed its
oracle, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "widx_e2e")
# One run must end well inside the 180 s a caller allows for it.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (a no-op when cached) and rebuild incrementally;
    build output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "widx_e2e",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def run_one(spec, workload, seed, seconds, trace, smoke, out):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    if smoke:
        cmd.append("--smoke")
    log(" ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        log("missing metrics: " + ", ".join(missing))
    result = {"correct": bool(record["correct"]) and not missing,
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}

    record.update(workload=workload, seed=seed, trace=int(trace),
                  smoke=smoke, seconds=seconds, missing=missing,
                  result=result, finished=time.time())
    path = os.path.join(
        out, "%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    ctx = {k: v for k, v in record["info"].items()
           if k.startswith(("host.", "service.")) or
           k.endswith("stream_digest")}
    ctx.update(workload=workload, seed=seed,
               record=os.path.relpath(path, ROOT))
    print("context " + json.dumps(ctx, sort_keys=True), flush=True)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; default: all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: "
                         "BENCHMARK.json run_seconds; 3 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, same code paths; numbers are "
                         "not comparable to full runs")
    ap.add_argument("--out", default=os.path.join(BUILD, "out"),
                    help="directory for run records and span files")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload and args.workload not in names:
            ap.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(names)))
        seconds = args.seconds or (3 if args.smoke else spec["run_seconds"])
        build()
        os.makedirs(args.out, exist_ok=True)
        results = {}
        for w in ([args.workload] if args.workload else names):
            results[w] = run_one(spec, w, args.seed, seconds,
                                 bool(args.trace), args.smoke, args.out)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("benchmark could not run: %s" % e)
        return 2

    if args.workload:
        result = results[args.workload]
    else:
        for w, r in results.items():
            print(w + " " + json.dumps(r), flush=True)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
