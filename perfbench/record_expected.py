"""Regenerate ``expected.json``: the expected verdict and golden digests of every input.

Runs each workload once in this process, checks every verdict against the
hand-written expectations in ``workloads.py`` (catalog and sweep verdicts
pass; each specimen gives its finding code or mismatch), and records the
SHA-256 of the lhs and rhs coefficient tables each verdict compared. Run it
only on a commit whose output is known to be right:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys

from verdicts import Capture, check_verdict
from worker import EXPECTED, import_program, load_specs, run_jobs
from workloads import WORKLOADS, expected_status, jobs


def _format(table: dict) -> str:
    """JSON with one line per verdict, so a changed digest shows as a one-line diff."""
    blocks = []
    for workload, rows in table.items():
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in rows.items()]
        blocks.append(f"  {json.dumps(workload)}: {{\n" + ",\n".join("  " + ln for ln in lines) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    registry = import_program()
    capture = Capture(registry)
    table: dict = {}
    bad = []
    for workload in WORKLOADS:
        load_specs(registry, workload)
        start = len(capture.records)
        run_jobs(registry, jobs(workload, 0))
        rows: dict = {}
        for key, report, digests in capture.records[start:]:
            row = expected_status(key)
            problems = check_verdict(row, report, digests, check_digests=False)
            if problems or key in rows:
                bad.append((key, problems or ["verified twice"]))
            row["digests"] = [list(d) for d in digests]
            rows[key] = row
        table[workload] = dict(sorted(rows.items()))
        print(f"{workload}: {len(rows)} verdicts", file=sys.stderr)
    if bad:
        for key, problems in bad:
            print(f"{key}: {problems}", file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as fh:
        fh.write(_format(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
