#!/usr/bin/env python3
"""Reduce a perfbench span dump to per-layer host self time.

A span dump is written by ``perfbench_driver --trace 1`` (through
``perfbench/run.py --trace 1``) to ``.bench_build/perfbench-out/
<workload>.spans.json``. Every span has a name ``<layer>.<call>``,
start and end in nanoseconds, its parent span, the host thread that
ran it, the batch it belongs to and the fan-out arm it served.

Self time of a span is its duration minus the part of its interval
that its child spans cover. A layer's self time is the sum over its
spans, in host thread-seconds: fan-out arms run on several threads,
so the layers of one batch add up to more than its wall time.

The reduction checks its own accounting: for every span tree rooted
on one thread (the batch on the main thread, each arm task on a
worker), the self times of the tree plus the time that arms on other
threads cover must add up to the root's duration.

Usage: python3 perfbench/reduce_trace.py SPANS.json [SPANS.json ...]
prints the per-layer self time of each workload, per batch median.
"""

import json
import statistics
import sys

LAYERS = ("workload", "snapshot", "cpu", "os", "sim", "stats")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    keys = ("id", "parent", "name", "thread", "iter", "arm", "t0", "t1")
    doc["spans"] = [dict(zip(keys, s)) for s in doc["spans"]]
    return doc


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def percentile(values, p):
    """Nearest-rank percentile, p in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def reduce_batch(spans, detail_insts=0):
    """Self times and named sums of one batch's spans (seconds).

    `detail_insts` is the batch's detailed retired instruction count,
    the base of cpu.host_ns_per_inst."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    self_ns, cross_ns = {}, {}
    for s in spans:
        kids = children.get(s["id"], [])
        self_ns[s["id"]] = s["t1"] - s["t0"] - covered(
            [(k["t0"], k["t1"]) for k in kids], s["t0"], s["t1"])
        cross_ns[s["id"]] = covered(
            [(k["t0"], k["t1"]) for k in kids
             if k["thread"] != s["thread"]], s["t0"], s["t1"])

    # Accounting check per single-thread tree.
    errors = []
    roots = [s for s in spans
             if s["parent"] not in by_id
             or by_id[s["parent"]]["thread"] != s["thread"]]
    for root in roots:
        total, stack = 0, [root]
        while stack:
            s = stack.pop()
            total += self_ns[s["id"]] + cross_ns[s["id"]]
            stack.extend(k for k in children.get(s["id"], [])
                         if k["thread"] == s["thread"])
        if total != root["t1"] - root["t0"]:
            errors.append("span %s (%d) accounts for %d of %d ns" % (
                root["name"], root["id"], total,
                root["t1"] - root["t0"]))

    def dur(s):
        return (s["t1"] - s["t0"]) * 1e-9

    def total_self(*names):
        return sum(self_ns[s["id"]] for s in spans
                   if s["name"] in names) * 1e-9

    def durations(name):
        return [dur(s) for s in spans if s["name"] == name]

    out = {"layer.%s.self_s" % l: sum(
        self_ns[s["id"]] for s in spans
        if s["name"].split(".")[0] == l) * 1e-9 for l in LAYERS}
    restores = durations("snapshot.restore")
    requests = [d * 1e6 for d in durations("cpu.request")]
    tasks = durations("sim.task")
    out.update({
        "workload.build_s": total_self("workload.build"),
        "workload.load_s": total_self("workload.load"),
        "workload.warmup_s": total_self("workload.warmup"),
        "snapshot.save_s": total_self("snapshot.save"),
        "snapshot.restore_s": sum(restores),
        "snapshot.restore_s_max": max(restores, default=0.0),
        "cpu.request_host_us.p50": percentile(requests, 50),
        "cpu.request_host_us.p99": percentile(requests, 99),
        "cpu.request_host_us.samples": len(requests),
        "os.rounds_s": total_self("os.rounds"),
        "jobs.task_s_p50": percentile(tasks, 50),
        "jobs.task_s_max": max(tasks, default=0.0),
        "stats.report_s": total_self("stats.report", "stats.collect"),
    })
    # Fan-out host time spent executing requests, per detailed
    # instruction (under sampling it includes fast-forward time).
    measured_s = sum(durations("cpu.request")) + sum(durations("os.rounds"))
    out["cpu.host_ns_per_inst"] = (
        measured_s * 1e9 / detail_insts if detail_insts else 0.0)
    return out, errors


def reduce(doc):
    """Per-layer metrics of a dump: median over its traced batches.

    Returns (metrics, errors)."""
    per_iter = {}
    for s in doc["spans"]:
        per_iter.setdefault(s["iter"], []).append(s)
    reduced, errors = [], []
    for it in sorted(per_iter):
        r, e = reduce_batch(per_iter[it], doc["batches"][it]["detail_insts"])
        reduced.append(r)
        errors += ["batch %d: %s" % (it, m) for m in e]
    if not reduced:
        return {}, ["no traced batch in the span dump"]
    metrics = {k: statistics.median(r[k] for r in reduced)
               for k in reduced[0]}
    traced = [b["wall_s"] for b in doc["batches"] if b["traced"]]
    plain = [b["wall_s"] for b in doc["batches"] if not b["traced"]]
    if traced and plain:
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0)
    else:
        errors.append("overhead needs traced and untraced batches")
    return metrics, errors


def main(paths):
    ok = True
    for path in paths:
        doc = load(path)
        metrics, errors = reduce(doc)
        print("%s (%d spans)" % (doc["workload"], len(doc["spans"])))
        for l in LAYERS:
            print("  %-10s %10.4f s self" % (
                l, metrics.get("layer.%s.self_s" % l, 0.0)))
        print("  trace overhead %+.2f%%" % metrics.get(
            "trace.overhead_pct", float("nan")))
        for e in errors:
            print("  ERROR " + e)
        ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
