#!/usr/bin/env python3
"""Overload-goodput gate for latency_bench's smoke run.

Compares the google-benchmark-shaped JSON that latency_bench writes
(BENCH_latency.json) against the committed bench/baseline.json and
fails when a pinned overload row loses goodput.

``goodput_pinned``: goodput_fraction from the OL_Overload rows
(Ok-within-SLO completions / scheduled arrivals, measured at ~4x the
run's own saturation rate), failing *below*
``baseline - goodput_noise_floor``. The floor is absolute (fractions
are already host-normalized: the overload rate scales with the
runner's measured saturation) and documented in the baseline next to
the values it pads; the committed 0.05 absorbs best-of-N scheduler
variance while still catching an admission controller that stopped
controlling (which collapses the adaptive row to the static rows'
fraction, a ~0.1 drop). On top of the per-row bound,
``goodput_dominance`` rules assert the *ordering* the overload
ladder exists to demonstrate: each rule's winner row must beat every
row it is pinned against by at least ``margin`` — a relative gate
that no per-row noise floor can absorb away.

The measured file is schema-validated before gating (top-level
"benchmarks" list, string names, numeric metric fields, p50 <= p99,
fractions in [0, 1]) so a malformed or truncated file fails loudly
instead of silently dropping pinned coverage. Pinned rows missing
from the measured run fail the gate too, so a renamed or deleted
row can't silently drop coverage.

Refresh the pins with:

    ./latency_bench --smoke
    python3 tools/bench_regression.py BENCH_latency.json \
        bench/baseline.json --update
"""

import argparse
import json
import sys


def schema_error(path, msg):
    sys.exit(f"schema error in {path}: {msg}")


def load_entries(path):
    """Schema-validate the measured file; name -> benchmark entry
    for every non-aggregate row."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        schema_error(path, "top level is not an object")
    benches = data.get("benchmarks")
    if not isinstance(benches, list):
        schema_error(path, 'non-list "benchmarks"')
    out = {}
    for i, b in enumerate(benches):
        where = f"benchmarks[{i}]"
        if not isinstance(b, dict):
            schema_error(path, f"{where} is not an object")
        name = b.get("name")
        if not isinstance(name, str) or not name:
            schema_error(path, f"{where} lacks a non-empty name")
        # Aggregate rows (--benchmark_repetitions: mean/median/
        # stddev/cv) carry *aggregated* counters and are never
        # gated; only their shape is checked.
        if b.get("run_type") == "aggregate":
            continue
        for field in ("items_per_second", "p50_ns", "p90_ns",
                      "p99_ns", "p999_ns", "max_ns"):
            v = b.get(field)
            if v is not None and (not isinstance(v, (int, float))
                                  or isinstance(v, bool) or v < 0):
                schema_error(
                    path, f"{where} ({name}): {field} is not a "
                          f"non-negative number: {v!r}")
        p50, p99 = b.get("p50_ns"), b.get("p99_ns")
        if p50 is not None and p99 is not None and p50 > p99:
            schema_error(
                path, f"{where} ({name}): p50_ns {p50} > p99_ns "
                      f"{p99} (percentiles must be monotone)")
        frac = b.get("goodput_fraction")
        if frac is not None and (not isinstance(frac, (int, float))
                                 or isinstance(frac, bool)
                                 or not 0.0 <= frac <= 1.0):
            schema_error(
                path, f"{where} ({name}): goodput_fraction is not "
                      f"in [0, 1]: {frac!r}")
        out[name] = b
    return out


def gate_goodput(measured, baseline):
    """Fail when a pinned row's goodput_fraction drops below
    baseline - goodput_noise_floor, or when a goodput_dominance
    rule's winner no longer beats every row it is pinned against by
    its margin."""
    pinned = baseline.get("goodput_pinned", {})
    floor = baseline.get("goodput_noise_floor", 0.05)
    failures = []
    width = max(map(len, pinned), default=0)

    def frac_of(name):
        entry = measured.get(name)
        return entry.get("goodput_fraction") if entry else None

    for name, base_frac in sorted(pinned.items()):
        got = frac_of(name)
        if got is None:
            failures.append(f"{name}: goodput row missing from "
                            f"measured run [goodput_pinned]")
            print(f"  {name:<{width}}  MISSING")
            continue
        allowed = max(0.0, base_frac - floor)
        status = "ok" if got >= allowed else "REGRESSION"
        if got < allowed:
            failures.append(
                f"{name}: goodput_fraction {got:.3f} vs baseline "
                f"{base_frac:.3f} (allowed >= {allowed:.3f} = "
                f"base - {floor:.2f} noise floor) [goodput_pinned]")
        print(f"  {name:<{width}}  {got:5.3f} vs {base_frac:5.3f}"
              f"  (allowed {allowed:5.3f})  {status}")

    for rule in baseline.get("goodput_dominance", []):
        winner = rule["winner"]
        margin = rule.get("margin", 0.0)
        w = frac_of(winner)
        if w is None:
            failures.append(f"dominance rule: winner row missing "
                            f"from measured run: {winner}")
            continue
        for other in rule["over"]:
            v = frac_of(other)
            if v is None:
                failures.append(f"dominance rule: row missing from "
                                f"measured run: {other}")
                continue
            status = "ok" if w >= v + margin else "REGRESSION"
            if w < v + margin:
                failures.append(
                    f"{winner}: goodput_fraction {w:.3f} no longer "
                    f"beats {other} ({v:.3f}) by margin {margin:.2f}"
                    f" [goodput_dominance]")
            print(f"  dominance: {winner} ({w:.3f}) >= "
                  f"{other} ({v:.3f}) + {margin:.2f}  {status}")
    return len(pinned), failures


def update_baseline(measured, baseline, path):
    names = list(baseline.get("goodput_pinned", {}))
    missing = [n for n in names if n not in measured or
               "goodput_fraction" not in measured[n]]
    if missing:
        sys.exit("--update: measured run lacks pinned rows:\n  "
                 + "\n  ".join(missing))
    baseline["goodput_pinned"] = {
        n: measured[n]["goodput_fraction"] for n in names
    }
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"updated {len(names)} goodput rows in {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("measured",
                    help="BENCH_latency.json from latency_bench")
    ap.add_argument("baseline", help="committed bench/baseline.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline's goodput pins from "
                         "the measured run instead of gating")
    args = ap.parse_args()

    measured = load_entries(args.measured)
    with open(args.baseline) as f:
        baseline = json.load(f)

    if args.update:
        update_baseline(measured, baseline, args.baseline)
        return

    n_good, failures = gate_goodput(measured, baseline)
    if failures:
        print(f"\n{len(failures)} goodput check(s) failed:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {n_good} goodput rows within the noise floor of "
          f"baseline, and every dominance rule holds")


if __name__ == "__main__":
    main()
