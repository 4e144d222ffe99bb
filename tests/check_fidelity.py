#!/usr/bin/env python3
"""Paper-fidelity check: the measured values EXPERIMENTS.md documents
must be the values the bench binaries print.

Runs fig8_schemes, table2_tech_scaling and fig9_prefetchability at their
default budget (4M instructions per benchmark) against one artifact
cache, wiped first, so the first binary simulates the suite and the
other two load it.  It then compares, to the tables' one-decimal
rounding:

  - Table 2: OPT-Drowsy, OPT-Sleep and OPT-Hybrid for both caches at
    all four nodes (24 values);
  - Figure 8: the suite average of all six schemes for both caches
    (12 values);
  - Figure 9: the I-cache next-line fraction and the D-cache next-line,
    stride and total fractions (4 values), read from the `fig9_totals`
    table of fig9_prefetchability's --json report.

The expected values are read from EXPERIMENTS.md itself (the number
after the arrow of a "paper -> measured" cell, or the measured column
of Figure 9), so the document cannot drift from the code.  When a value
stops matching, correct EXPERIMENTS.md and say why in CHANGES.md; there
is no tolerance to widen.

Usage (CTest passes the paths):
  check_fidelity.py EXPERIMENTS.md CACHE_DIR FIG8 TABLE2 FIG9
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ARROW = "→"
ONE_DECIMAL = re.compile(r"^\d+\.\d$")


def doc_section(doc, title):
    """Lines of the EXPERIMENTS.md section whose heading starts with title."""
    lines = doc.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("## " + title))
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    return lines[start + 1:end]


def doc_tables(lines):
    """Markdown tables in lines, each a list of rows of stripped cells."""
    tables, current = [], None
    for line in lines:
        if not line.startswith("|"):
            current = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if all(set(c) <= set("-: ") for c in cells):
            continue  # the separator under the header
        if current is None:
            current = []
            tables.append(current)
        current.append(cells)
    return tables


def measured(cell):
    """The measured number of a cell: after the arrow, without markup."""
    return cell.split(ARROW)[-1].strip().strip("*").rstrip("%")


def stdout_tables(text):
    """Tables a bench binary printed: {title: {first cell: {column: cell}}}."""
    tables, rows, header = {}, None, None
    for line in text.splitlines():
        match = re.match(r"^== (.*) ==$", line)
        if match:
            rows, header = {}, None
            tables[match.group(1)] = rows
        elif rows is not None and "|" in line:
            cells = [c.strip() for c in line.split("|")]
            if header is None:
                header = cells
            else:
                rows[cells[0]] = dict(zip(header, cells))
        elif line.strip() and set(line) != {"-"}:
            rows = None  # past the table
    return tables


def find_table(tables, prefix):
    matches = [title for title in tables if title.startswith(prefix)]
    if len(matches) != 1:
        sys.exit(f"fidelity: expected one table titled '{prefix}...', "
                 f"found {len(matches)}")
    return tables[matches[0]]


def run(binary, cache_dir, *flags):
    proc = subprocess.run([binary, "--cache-dir", cache_dir, *flags],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"fidelity: {binary} exited {proc.returncode}")
    return proc.stdout


def main():
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    doc_path, cache_dir, fig8, table2, fig9 = sys.argv[1:]
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()

    shutil.rmtree(cache_dir, ignore_errors=True)
    fig8_out = stdout_tables(run(fig8, cache_dir))
    table2_out = stdout_tables(run(table2, cache_dir))
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "fig9.json")
        run(fig9, cache_dir, "--json", report_path)
        with open(report_path, encoding="utf-8") as f:
            fig9_report = json.load(f)

    checks = []  # (what, documented, printed)

    # Table 2: two tables (I-cache, then D-cache), one row per node.
    doc_t2 = doc_tables(doc_section(doc, "Table 2"))
    if len(doc_t2) != 2:
        sys.exit(f"fidelity: Table 2 has {len(doc_t2)} tables, expected 2")
    for cache, table in zip(("I-Cache", "D-Cache"), doc_t2):
        printed = find_table(table2_out, f"Table 2 ({cache})")
        header = table[0]
        for row in table[1:]:
            node = row[0]
            for scheme, cell in zip(header[1:], row[1:]):
                checks.append((f"Table 2 {cache} {node} {scheme}",
                               measured(cell),
                               printed.get(node, {}).get(scheme, "missing")))

    # Figure 8: one row per scheme, I-cache then D-cache columns,
    # against the "average" row of each printed table.
    doc_f8 = doc_tables(doc_section(doc, "Figure 8"))
    if len(doc_f8) != 1:
        sys.exit(f"fidelity: Figure 8 has {len(doc_f8)} tables, expected 1")
    for cache, column in (("8(a) Instruction Cache", 1),
                          ("8(b) Data Cache", 2)):
        average = find_table(fig8_out, "Figure " + cache).get("average", {})
        for row in doc_f8[0][1:]:
            scheme = row[0].split(" ")[0]  # "Sleep(10K) (decay)"
            checks.append((f"Figure {cache} average {scheme}",
                           measured(row[column]),
                           average.get(scheme, "missing")))

    # Figure 9: the report's totals table, one row per cache.
    totals = [t for t in fig9_report["tables"] if t["slug"] == "fig9_totals"]
    if len(totals) != 1:
        sys.exit(f"fidelity: fig9 reported {len(totals)} totals tables, "
                 f"expected 1")
    rows = {row[0]: dict(zip(totals[0]["header"], row))
            for row in totals[0]["rows"]}
    icache, dcache = rows.get("instruction", {}), rows.get("data", {})
    printed_f9 = {
        "I-cache next-line fraction": icache.get("next-line", "missing"),
        "D-cache next-line fraction": dcache.get("next-line", "missing"),
        "D-cache stride fraction": dcache.get("stride", "missing"),
        "D-cache total": dcache.get("total", "missing"),
    }
    doc_f9 = doc_tables(doc_section(doc, "Figure 9"))
    if len(doc_f9) != 1:
        sys.exit(f"fidelity: Figure 9 has {len(doc_f9)} tables, expected 1")
    for row in doc_f9[0][1:]:
        checks.append((f"Figure 9 {row[0]}", measured(row[2]),
                       printed_f9.get(row[0], "missing")))

    failures = 0
    for what, documented, printed in checks:
        printed = printed.rstrip("%")
        if not ONE_DECIMAL.match(documented) or documented != printed:
            print(f"fidelity: {what}: EXPERIMENTS.md says {documented}, "
                  f"the bench prints {printed}")
            failures += 1
    expected_count = 24 + 12 + 4
    if len(checks) != expected_count:
        print(f"fidelity: compared {len(checks)} values, expected "
              f"{expected_count}")
        failures += 1
    if failures:
        sys.exit(1)
    print(f"fidelity: all {len(checks)} values match EXPERIMENTS.md")


if __name__ == "__main__":
    main()
