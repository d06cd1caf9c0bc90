#!/usr/bin/env python3
"""Check the numbers EXPERIMENTS.md quotes against the committed JSON.

Every cell of the Figure 5 table (trampoline skip rate per workload and
ABTB size) must equal the matching `<workload>.entries<N>` run of
BENCH_fig5.json, and every cell of the Table 4 "Cycles" column (the
enhanced machine's cycle change over base) must equal the
`<workload>.base` / `<workload>.enhanced` runs of BENCH_table4.json,
each at the precision the document prints.

Usage: check_experiments.py [REPO_ROOT]   (exit 0 = every cell agrees)
"""

import json
import pathlib
import re
import sys

NUMBER = re.compile(r"([-−±]?)(\d+(?:\.(\d+))?)%")


def parse_cell(cell):
    """The percentage in a table cell and its number of decimals."""
    m = NUMBER.search(cell)
    if not m:
        raise ValueError(f"no percentage in cell {cell!r}")
    value = float(m.group(2))
    return (-value if m.group(1) == "−" or m.group(1) == "-" else value,
            len(m.group(3) or ""))


def section_rows(lines, heading):
    """Split rows (lists of stripped cells) of the first table under
    the `## <heading>` section; the header row comes first."""
    rows, inside = [], False
    for line in lines:
        if line.startswith("## "):
            if rows:
                break
            inside = line.startswith("## " + heading)
            continue
        if inside and line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not all(set(c) <= set("-: ") for c in cells):
                rows.append(cells)
        elif rows:
            break
    if not rows:
        raise ValueError(f"no table under '## {heading}'")
    return rows


def runs(path):
    with open(path) as f:
        return {r["name"]: {k: m["value"] for k, m in r["metrics"].items()
                            if "value" in m}
                for r in json.load(f)["runs"]}


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    lines = (root / "EXPERIMENTS.md").read_text().splitlines()
    fig5 = runs(root / "BENCH_fig5.json")
    table4 = runs(root / "BENCH_table4.json")
    checked, failures = 0, []

    def check(what, cell, actual):
        nonlocal checked
        printed, decimals = parse_cell(cell)
        checked += 1
        if abs(printed - actual) > 0.5 * 10 ** -decimals + 1e-9:
            failures.append(f"{what}: EXPERIMENTS.md says {cell}, "
                            f"the JSON gives {actual:.{decimals + 2}f}%")

    header, *body = section_rows(lines, "Figure 5")
    workloads = [h for h in header[1:] if not h.startswith("paper")]
    for row in body:
        entries = re.match(r"\d+", row[0]).group(0)
        for w, cell in zip(workloads, row[1:]):
            name = f"{w}.entries{entries}"
            rate = fig5[name]["dlsim.cpu.trampoline_skip_rate"]
            check(f"Figure 5 {name}", cell, 100.0 * rate)

    header, *body = section_rows(lines, "Table 4")
    cycles = header.index("Cycles")
    for row in body:
        w = row[0]
        base = table4[f"{w}.base"]["dlsim.cpu.cycles"]
        enhanced = table4[f"{w}.enhanced"]["dlsim.cpu.cycles"]
        check(f"Table 4 {w} cycles", row[cycles],
              100.0 * (enhanced - base) / base)

    for f in failures:
        print(f, file=sys.stderr)
    print(f"check_experiments: {checked} cells, {len(failures)} differ")
    return 1 if failures or checked == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
