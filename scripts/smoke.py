#!/usr/bin/env python3
"""Structural smoke check of one `ddio-bench run all --format json` report.

Every scenario in EXPECTATIONS must be in the report, and its cells must pass
each check listed for it. Prints every failed check and exits 1 if any fail.

Usage (at smoke scale: DDIO_FILE_MB=1 DDIO_TRIALS=1 DDIO_SMALL_RECORDS=0):
  ddio-bench run all --jobs 2 --format json --out bench-smoke.json
  python3 scripts/smoke.py bench-smoke.json
"""

import json
import sys

# scenario -> [(what must hold, check over the scenario's cells)]
EXPECTATIONS = {
    "sched-sweep": [
        ("a scheduling policy on every cell", lambda cs: all(c["sched"] for c in cs)),
        ("all four policies", lambda cs: {c["sched"] for c in cs} == {"fcfs", "sstf", "cscan", "presort"}),
        ("per-drive counters on every cell", lambda cs: all(c["drives"] for c in cs)),
    ],
    "cache-sweep": [
        ("cache counters", lambda cs: any(c["cache"] for c in cs)),
        ("an lru+one+watermark cell", lambda cs: any(c["cache_policies"] == "lru+one+watermark" for c in cs)),
    ],
    "net-sweep": [
        ("8 fabric compositions", lambda cs: len({(c["net"]["topology"], c["net"]["contention"]) for c in cs}) == 8),
        ("link counters under the link model", lambda cs: any(c["net"]["links"] for c in cs)),
        ("NI occupancy on every cell", lambda cs: all(c["net"]["ni"] for c in cs)),
    ],
    "fault-sweep": [
        ("24 cells", lambda cs: len(cs) == 24),
        ("fault fields on every cell", lambda cs: all({"fault", "faults", "redundancy"} <= c.keys() for c in cs)),
        ("9 fault compositions", lambda cs: len({(c["faults"], c["redundancy"]) for c in cs}) == 9),
        ("an unprotected death losing blocks", lambda cs: any(c["fault"]["lost_blocks"] for c in cs)),
        ("a cell reconstructing", lambda cs: any(c["fault"]["reconstruction_reads"] for c in cs)),
    ],
    "serve-sweep": [
        ("48 cells", lambda cs: len(cs) == 48),
        ("a serve object on every cell", lambda cs: all("serve" in c for c in cs)),
        ("tail percentiles", lambda cs: all(c["serve"]["p999_ms"] is not None for c in cs)),
        ("per-tenant throughput", lambda cs: all(c["serve"]["tenants"] for c in cs)),
        ("no dropped requests", lambda cs: all(c["serve"]["requests"] == 256 for c in cs)),
    ],
}


def failures(report):
    """The failed checks of `report`, as printable lines."""
    cells = {s["name"]: s["cells"] for s in report["scenarios"]}
    failed = []
    for scenario, checks in EXPECTATIONS.items():
        if scenario not in cells:
            failed.append(f"{scenario}: missing from the report")
            continue
        failed += [f"{scenario}: expected {what}" for what, ok in checks if not ok(cells[scenario])]
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        failed = failures(json.load(f))
    for line in failed:
        print(f"smoke: {line}", file=sys.stderr)
    print(f"smoke: {len(failed)} of {sum(map(len, EXPECTATIONS.values()))} checks failed")
    sys.exit(1 if failed else 0)
