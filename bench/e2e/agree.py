#!/usr/bin/env python3
"""Compare sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench/e2e/agree.py A            # spread of one set
    python3 bench/e2e/agree.py A B          # B against A
    python3 bench/e2e/agree.py A T          # T traced: tracing overhead

A, B and T are run records written by run.py (files, or directories
holding them). For each (workload, end-to-end metric) the script
prints each set's median and its spread, the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of
the median, and a verdict against the metric's bound:

  agree       B's median is no worse than A's by more than the bound
  regress     B's median is worse than A's by more than the bound
  unresolved  a set's spread exceeds the bound, unless every run of
              B reads better than every run of A (never for
              setup_s, which is held to its median only)
  steady      (one set) spread below a third of the bound
  noisy       (one set) spread at or above a third of the bound

When the second set holds traced runs, it prints instead each traced
metric (traced.<name>) against the untraced median of the first set:
the tracing overhead.

Exit status: 0 when every pair agrees (or is steady), 1 otherwise.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(arg):
    paths = sorted(glob.glob(os.path.join(arg, "*.json"))) \
        if os.path.isdir(arg) else [arg]
    runs = []
    for p in paths:
        with open(p) as f:
            rec = json.load(f)
        if "workload" in rec and "metrics" in rec:
            runs.append(rec)
    if not runs:
        sys.exit("agree.py: no run records in %s" % arg)
    return runs


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def summary(vs):
    """Median and quartile spread as a share of the median."""
    med = statistics.median(vs)
    if len(vs) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(vs, n=4)
    return med, (q[2] - q[0]) / abs(med)


def worsening(m, a, b):
    """Relative change from a to b, positive when b is worse."""
    d = (b - a) / abs(a) if a else 0.0
    return d if m["better"] == "lower" else -d


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else None
    bad = (sum(not r["correct"] for r in a) +
           sum(not r["correct"] for r in (b or [])))
    if bad:
        print("%d run(s) were not correct" % bad)
    traced = b is not None and all(r.get("trace") for r in b)
    ok = not bad
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = values(a, w, name)
            if not va:
                continue
            ma, sa = summary(va)
            if b is None:
                verdict = "steady" if sa < bound / 3 else "noisy"
                ok &= verdict == "steady" or name == "setup_s"
                print("%-16s %-12s n=%-3d median %12.4g  spread %6.3f  "
                      "bound %.2f  %s" % (w, name, len(va), ma, sa, bound,
                                          verdict))
                continue
            vb = values(b, w, "traced." + name if traced else name)
            if not vb:
                continue
            mb, sb = summary(vb)
            if traced:
                print("%-16s %-12s untraced %12.4g  traced %12.4g  "
                      "overhead %+12.4g (%+.1f%%)"
                      % (w, name, ma, mb, mb - ma,
                         100 * (mb - ma) / ma if ma else 0))
                continue
            worse = worsening(m, ma, mb)
            lower = m["better"] == "lower"
            all_better = (max(vb) < min(va)) if lower else \
                (min(vb) > max(va))
            # Set-up time is held to its median only: a build follows
            # the host's speed, so its spread is not bounded.
            if max(sa, sb) > bound and not all_better and \
                    name != "setup_s":
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regress"
            else:
                verdict = "agree"
            ok &= verdict == "agree"
            print("%-16s %-12s A %12.4g (%.3f)  B %12.4g (%.3f)  "
                  "worse %+6.3f  bound %.2f  %s"
                  % (w, name, ma, sa, mb, sb, worse, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
