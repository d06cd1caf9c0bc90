#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds result records written by run.py
(``.bench_build/perfbench-results/<workload>.seed<N>.trace0.json``;
copy them aside between commits). For every workload and end-to-end
metric it prints the median of each side, the quartile spread of the
old side and the change, and flags a change worse than the metric's
bound in BENCHMARK.json. Records of the same workload and seed must
carry the same output digest: a simulator-only change leaves every
simulated output identical. It refuses (exit 2) to pair records from
different host classes (CPU count and model), build settings or run
sizes (full against --quick), and exits 1 when an output differs or a
metric regressed beyond its bound.
"""

import glob
import json
import os
import statistics
import sys

HOST_CLASS = ("nproc", "cpu_model")
BUILD = ("compiler", "build_type", "lto", "jobs", "quick")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare: no *.trace0.json records in " + directory)
    return records


def classes(records, keys):
    return {tuple(r["context"][k] for k in keys) for r in records}


def main(old_dir, new_dir):
    old, new = load(old_dir), load(new_dir)
    for keys, what in ((HOST_CLASS, "host classes"), (BUILD, "builds")):
        seen = classes(old, keys) | classes(new, keys)
        if len(seen) != 1:
            print("compare: refusing to pair different %s: %s"
                  % (what, sorted(seen)))
            return 2
    bench_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(bench_path) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    worse = 0
    digests = {(r["workload"], r["context"]["seed"]): r["digest"]
               for r in old}
    for r in new:
        key = (r["workload"], r["context"]["seed"])
        if key in digests and digests[key] != r["digest"]:
            print("%s seed %d: output digest %s differs from %s" % (
                key + (r["digest"], digests[key])))
            worse += 1
    workloads = {r["workload"] for r in old} & {r["workload"] for r in new}
    for w in sorted(workloads):
        for name, spec in metrics.items():
            a = [r["metrics"][name]["value"] for r in old if r["workload"] == w]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == w]
            ma, mb = statistics.median(a), statistics.median(b)
            spread = 0.0
            if len(a) >= 2:
                q = statistics.quantiles(a, n=4)
                spread = (q[2] - q[0]) / ma
            change = (mb - ma) / ma
            regress = change if spec["better"] == "lower" else -change
            flag = ""
            if regress > spec["bound"]:
                flag, worse = "WORSE", worse + 1
            print("%-14s %-16s old %12.4f  new %12.4f  change %+7.2f%%  "
                  "old spread %5.2f%%  n=%d/%d %s" % (
                      w, name, ma, mb, 100 * change, 100 * spread,
                      len(a), len(b), flag))
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
