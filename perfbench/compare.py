#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

A result set is a directory of the JSON files `perfbench/run.py` stores
(`.bench_build/results/` by default), typically one file per workload, seed
and trace mode. Runs are joined by (workload, trace mode, size, seconds); for
every metric the medians over seeds are compared. End-to-end metrics are
judged against their `bound` from BENCHMARK.json (the share of the base median
by which the metric may get worse). The verdict is `unresolved` instead when
the base runs cannot resolve the bound: fewer than 3 of them, or their own
spread (interquartile range over median) is larger than the bound. Per-layer
metrics are printed without a verdict. Results whose host provenance differs,
within a set or between the two sets, are refused: they measure different
programs or machines.

Exit status: 0 when no end-to-end metric regressed past its bound (unresolved
ones included), 1 when one did or a run failed its correctness checks, 2 on
refused or unusable input.
"""
import argparse
import glob
import json
import os
import statistics
import sys

# Provenance fields that name the run rather than the host or build.
RUN_FIELDS = {"workload"}


def load_set(path):
    """{(workload, trace, size, seconds): [record, ...]} from one results directory."""
    groups = {}
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    if not files:
        raise ValueError("no result files in %s" % path)
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        key = (rec["workload"], rec["trace"], rec["size"], rec["seconds"])
        groups.setdefault(key, []).append(rec)
    return groups


def host(rec):
    return {k: v for k, v in rec["provenance"].items() if k not in RUN_FIELDS}


def check_provenance(base, new):
    """List of problems; empty when, per workload, every run of both sets
    shares one host and build (threads, backend and wait policy are
    per-workload settings, so workloads are not compared with each other)."""
    problems = []
    for key in sorted(set(base) | set(new)):
        ref = None
        for name, groups in (("base", base), ("new", new)):
            for rec in groups.get(key, []):
                h = host(rec)
                if ref is None:
                    ref = (name, rec["seed"], h)
                elif h != ref[2]:
                    diff = sorted(k for k in set(h) | set(ref[2]) if h.get(k) != ref[2].get(k))
                    problems.append("%s: %s seed %s differs from %s seed %s in %s" % (
                        "/".join(map(str, key)), name, rec["seed"], ref[0], ref[1],
                        ", ".join(diff)))
    return problems


def medians(recs):
    """({metric: median}, {metric: spread}, {metric: unit}) over `recs`; the
    spread is IQR/median, None with fewer than 3 runs or a zero median."""
    values = {}
    units = {}
    for rec in recs:
        for name, m in rec["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    med = {k: statistics.median(v) for k, v in values.items()}
    spread = {}
    for k, v in values.items():
        spread[k] = None
        if len(v) >= 3 and med[k] != 0:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread[k] = (q3 - q1) / abs(med[k])
    return med, spread, units


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    try:
        with open(args.benchmark) as fh:
            bench = json.load(fh)
        base, new = load_set(args.base), load_set(args.new)
    except (OSError, ValueError, KeyError) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 2
    problems = check_provenance(base, new)
    if problems:
        print("compare: refusing results with differing host provenance:", file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        return 2

    specs = {m["name"]: (m, True) for m in bench["end_to_end"]}
    specs.update({m["name"]: (m, False) for m in bench["per_layer"]})
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace, size, seconds = key
        bmed, bspread, units = medians(base[key])
        nmed, _, _ = medians(new[key])
        bfail = sum(r["result"]["failed"] for r in base[key])
        nfail = sum(r["result"]["failed"] for r in new[key])
        ncorrect = all(r["result"]["correct"] for r in new[key])
        print("%s  trace=%d size=%s seconds=%g  runs: base %d, new %d  "
              "failed: base %d, new %d%s" % (
                  workload, trace, size, seconds, len(base[key]), len(new[key]), bfail, nfail,
                  "" if ncorrect else "  NEW RUNS INCORRECT"))
        if not ncorrect:
            status = 1
        # End-to-end metrics first, then per-layer ones, each by name.
        order = lambda n: (not specs.get(n, ({}, False))[1], n)  # noqa: E731
        for name in sorted(set(bmed) & set(nmed), key=order):
            spec, e2e = specs.get(name, ({"better": "lower"}, False))
            b, n = bmed[name], nmed[name]
            if b == 0:
                delta_txt, verdict = "   n/a", ""
            else:
                delta = (n - b) / abs(b)
                worse = delta if spec["better"] == "lower" else -delta
                delta_txt = "%+7.2f%%" % (100 * delta)
                verdict = ""
                if e2e:
                    spread = bspread[name]
                    if spread is None or spread > spec["bound"]:
                        verdict = "unresolved"
                        verdict += " (base spread %s)" % (
                            "n/a" if spread is None else "%.0f%%" % (100 * spread))
                    else:
                        verdict = "REGRESSION" if worse > spec["bound"] else "ok"
                        if worse > spec["bound"]:
                            status = 1
                    verdict += " (bound %.0f%%)" % (100 * spec["bound"])
            print("  %-34s %14.6g -> %-14.6g %-6s %s  %s" % (
                name, b, n, units.get(name, ""), delta_txt, verdict))
    only = sorted(set(base) ^ set(new))
    for key in only:
        print("  unmatched: %s (only in %s)" % ("/".join(map(str, key)),
                                               "base" if key in base else "new"))
    return status


if __name__ == "__main__":
    sys.exit(main())
