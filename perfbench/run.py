#!/usr/bin/env python3
"""The repository benchmark: build the driver, run one workload, print
its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_exact --seed 1 \
        --seconds 20 --trace 0

``--workload all`` runs every workload in turn. ``--quick`` shrinks
every batch for smoke tests. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}`` where
``metrics`` maps each metric name to ``{"value", "unit"}`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full result, with its run context (host class,
compiler, build type, seed, job count) and output digest, is also
written to ``.bench_build/perfbench-results/``.

The simulator is built from ``src/`` into ``.bench_build/perfbench``
on first use; build output goes to standard error.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reduce_trace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
WORKLOADS = ("sweep_exact", "serve_churn", "serve_sampled")
# The workloads BENCHMARK.json lists. sweep_exact stays runnable by
# name but is not in that list: its host time drifts too much on a
# shared host to meet the bounds (see README.md).
BENCHMARKED = ("serve_churn", "serve_sampled")
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")
# A run measures for --seconds and then finishes the batch in flight;
# the driver is stopped if it runs this much longer.
OVERRUN_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_minst_per_s": "Minst/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    # workload (program generation, elf/linker load, warm-up)
    "workload.build_s": "s",
    "workload.load_s": "s",
    "workload.warmup_s": "s",
    # snapshot
    "snapshot.save_s": "s",
    "snapshot.restore_s": "s",
    "snapshot.restore_s_max": "s",
    "snapshot.bytes": "B",
    # cpu (detailed core loop)
    "cpu.host_ns_per_inst": "ns",
    "cpu.request_host_us.p50": "us",
    "cpu.request_host_us.p99": "us",
    "cpu.request_host_us.samples": "count",
    # mem
    "mem.l1i.accesses": "count",
    "mem.l1d.accesses": "count",
    "mem.l1i.miss_rate": "%",
    "mem.l1d.miss_rate": "%",
    "mem.l2.miss_rate": "%",
    "mem.itlb.misses_pki": "1/kinst",
    "mem.dtlb.misses_pki": "1/kinst",
    "mem.ptc.hit_rate": "%",
    # branch
    "branch.btb.lookups": "count",
    "branch.btb.hit_rate": "%",
    "branch.mispredicts_pki": "1/kinst",
    # core (skip unit)
    "core.abtb.lookups": "count",
    "core.skip_rate": "%",
    "core.abtb.flushes.store": "count",
    "core.abtb.flushes.coherence": "count",
    "core.abtb.flushes.ctxswitch": "count",
    "core.abtb.flushes.explicit": "count",
    # linker
    "linker.blockcache.hit_rate": "%",
    "linker.blockcache.builds": "count",
    "linker.blockcache.flushes": "count",
    "linker.resolver_calls": "count",
    # check (RefCore fast-forward under sampling)
    "sampled.ff_insts": "count",
    "sampled.coverage": "%",
    "sampled.windows": "count",
    "sampled.ff_resolver_traps": "count",
    # os
    "os.rounds_s": "s",
    "os.sched.rounds": "count",
    "os.sched.dispatches": "count",
    "os.sched.preemptions": "count",
    "os.sched.asid_switches": "count",
    "os.sched.idle_slice_ratio": "%",
    "os.server.requests_served": "count",
    "os.server.tenant_churns": "count",
    "os.server.got_resets": "count",
    # sim (fan-out)
    "jobs.efficiency": "%",
    "jobs.task_s_p50": "s",
    "jobs.task_s_max": "s",
    "multicore.coherence_flushes": "count",
    "multicore.snooped_stores": "count",
    # stats
    "stats.report_s": "s",
    # simulated-time view (deterministic per seed)
    "sim.cycles": "cycles",
    "sim.ipc": "inst/cycle",
    "sim.abtb_cycles_saved_pct": "%",
    "sim.server_p50_kcycles.base": "kcycles",
    "sim.server_p50_kcycles.enhanced": "kcycles",
    "sim.server_p99_kcycles.base": "kcycles",
    "sim.server_p99_kcycles.enhanced": "kcycles",
    # per-layer self time from the span reduction
    "layer.workload.self_s": "s",
    "layer.snapshot.self_s": "s",
    "layer.cpu.self_s": "s",
    "layer.os.self_s": "s",
    "layer.sim.self_s": "s",
    "layer.stats.self_s": "s",
    "trace.overhead_pct": "%",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_driver")


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def counts(summary):
    """Per-layer work counts and the simulated-time view."""
    t = summary["totals"]

    def g(key):
        return t.get(key, 0.0)

    insts = g("cpu.instructions")
    m = {}
    for c in ("l1i", "l1d"):
        acc = g("cpu.%s.hits" % c) + g("cpu.%s.misses" % c)
        m["mem.%s.accesses" % c] = acc
        m["mem.%s.miss_rate" % c] = ratio(g("cpu.%s.misses" % c), acc, 100)
    m["mem.l2.miss_rate"] = ratio(
        g("cpu.l2.misses"), g("cpu.l2.hits") + g("cpu.l2.misses"), 100)
    m["mem.itlb.misses_pki"] = ratio(g("cpu.itlb.misses"), insts, 1000)
    m["mem.dtlb.misses_pki"] = ratio(g("cpu.dtlb.misses"), insts, 1000)
    m["mem.ptc.hit_rate"] = ratio(
        g("mem.ptc.hits"), g("mem.ptc.hits") + g("mem.ptc.misses"), 100)
    m["branch.btb.lookups"] = g("cpu.btb.lookups")
    m["branch.btb.hit_rate"] = ratio(
        g("cpu.btb.hits"), g("cpu.btb.lookups"), 100)
    m["branch.mispredicts_pki"] = ratio(g("cpu.mispredicts"), insts, 1000)
    m["core.abtb.lookups"] = g("core.abtb.lookups")
    m["core.skip_rate"] = ratio(
        g("cpu.skipped_trampolines"),
        g("cpu.skipped_trampolines") + g("cpu.trampoline_jmps"), 100)
    for name, key in (("store", "store"), ("coherence", "coherence"),
                      ("ctxswitch", "context_switch"),
                      ("explicit", "explicit")):
        m["core.abtb.flushes." + name] = g("core.skip.%s_flushes" % key)
    hits, builds = g("linker.blockcache.hits"), g("linker.blockcache.builds")
    m["linker.blockcache.hit_rate"] = ratio(hits, hits + builds, 100)
    m["linker.blockcache.builds"] = builds
    m["linker.blockcache.flushes"] = g("linker.blockcache.flushes")
    m["linker.resolver_calls"] = g("cpu.resolver_calls")
    m["sampled.ff_insts"] = g("os.sampled.ff_instructions")
    m["sampled.coverage"] = ratio(
        g("os.sampled.detail_instructions")
        + g("os.sampled.warmup_instructions"),
        g("os.sampled.total_instructions"), 100)
    m["sampled.windows"] = g("os.sampled.windows")
    m["sampled.ff_resolver_traps"] = g("os.sampled.resolver_traps")
    for k in ("rounds", "dispatches", "preemptions", "asid_switches"):
        m["os.sched." + k] = g("os.sched." + k)
    # Each server arm runs its own cores; slices offered = rounds x cores.
    cores = ratio(g("multicore.cores"), summary["arms"])
    m["os.sched.idle_slice_ratio"] = ratio(
        g("os.sched.idle_slices"), g("os.sched.rounds") * cores, 100)
    for k in ("requests_served", "tenant_churns", "got_resets"):
        m["os.server." + k] = g("os.server." + k)
    m["multicore.coherence_flushes"] = g("multicore.coherence_flushes")
    m["multicore.snooped_stores"] = g("multicore.snooped_stores")

    machines = summary["machines"]
    cycles = sum(v["cycles"] for v in machines.values())
    sim_insts = summary["batches"][0]["sim_insts"]
    m["sim.cycles"] = cycles
    m["sim.ipc"] = ratio(sim_insts, cycles)
    base = machines.get("base", {}).get("cycles", 0.0)
    best = machines.get("abtb256", machines.get("enhanced", {}))
    m["sim.abtb_cycles_saved_pct"] = ratio(
        base - best.get("cycles", base), base, 100)
    server = "enhanced" in machines
    for arm in ("base", "enhanced"):
        for p in ("p50", "p99"):
            v = machines[arm]["latency_" + p] / 1000 if server else 0.0
            m["sim.server_%s_kcycles.%s" % (p, arm)] = v
    m["snapshot.bytes"] = summary["snapshot_bytes"]
    return m


def end_to_end(summary):
    plain = [b for b in summary["batches"] if not b["traced"]]
    # The first batch warms the fresh process (heap growth, first page
    # touches); leave it out once there are enough batches without it.
    if len(plain) >= 3:
        plain = plain[1:]
    return {
        "wall_s": statistics.median(b["wall_s"] for b in plain),
        "setup_s": statistics.median(b["setup_s"] for b in plain),
        "sim_minst_per_s": statistics.median(
            b["sim_insts"] / b["fanout_s"] / 1e6 for b in plain),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def per_layer(summary):
    m = counts(summary)
    m["jobs.efficiency"] = 100 * statistics.median(
        b["jobs_efficiency"] for b in summary["batches"])
    traced, errors = reduce_trace.reduce(reduce_trace.load(summary["spans"]))
    m.update(traced)
    return m, errors


def run_driver(driver, workload, args, deadline):
    cmd = [driver, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_digest(workload, seed):
    """The seed-commit output digest of a full-size run, or None."""
    with open(BASELINE) as f:
        digests = json.load(f)["workloads"][workload]["digests"]
    return digests.get(str(seed))


def measure(driver, workload, args, deadline):
    """Run one workload; return (result line dict, full record)."""
    summary = run_driver(driver, workload, args, deadline)
    errors = list(summary["errors"])
    expected = None if args.quick else recorded_digest(workload, args.seed)
    if expected is not None and summary["digest"] != expected:
        errors.append("output digest %s differs from the seed-commit "
                      "digest %s in baseline.json" % (summary["digest"],
                                                       expected))
    if args.trace:
        values, trace_errors = per_layer(summary)
        errors += trace_errors
        units = PER_LAYER
    else:
        values = end_to_end(summary)
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            errors.append("metric %s is not finite" % name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": bool(summary["correct"]) and not errors,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }
    record = dict(result, workload=workload, digest=summary["digest"],
                  context=summary["context"], errors=errors,
                  batches=summary["batches"])
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small batches, for smoke tests")
    args = ap.parse_args()

    driver = build()
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        deadline = time.monotonic() + args.seconds + OVERRUN_S
        result, record = measure(driver, w, args, deadline)
        for e in record["errors"]:
            log("%s: %s" % (w, e))
        for name, m in result["metrics"].items():
            log("%-14s %-32s %16.6g %s" % (w, name, m["value"], m["unit"]))
        path = os.path.join(RESULTS, "%s.seed%d.trace%d.json" % (
            w, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        if len(names) == 1:
            line = result
        else:
            line["correct"] = line["correct"] and result["correct"]
            line["attempted"] += result["attempted"]
            line["failed"] += result["failed"]
            line["metrics"].update({"%s/%s" % (w, k): v for k, v
                                    in result["metrics"].items()})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into an exception so a running driver is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        sys.exit(1)
