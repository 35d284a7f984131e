#!/usr/bin/env python3
"""Deterministic benchmark pins: every workload must still reproduce its
pinned simulated digest and executor event count, and pass its own
correctness check.

For each workload in scripts/bench_pins.json this runs
`perfbench/run.py --workload <name> --seed <seed> --seconds <seconds> --trace 0`
and checks that the run reports `correct: true`, the pinned digest, and the
pinned `sim.events` per sweep. Host times are printed but never checked:
they are only comparable as a same-host A/B. Prints every mismatch and
exits 1 if any workload fails.

The digest hashes every simulated figure of a sweep together with its event
count, so a change that removes executor events on purpose moves both pins.
Re-pin by copying the new values from this script's output, and say in the
change why they moved.

Usage, from the repository root:
  python3 scripts/bench_pins.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_LINE = re.compile(r"simulated digest ([0-9a-f]+), sim\.events (\d+) per sweep")


def run(workload, seed, seconds):
    """One perfbench run: (correct, digest, sim_events, sweep_s), or an error string."""
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"perfbench exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    lines = proc.stdout.splitlines()
    sim = next((m for m in map(SIM_LINE.search, lines) if m), None)
    if sim is None:
        return "no 'simulated digest' line in the perfbench output"
    result = json.loads(lines[-1])
    return result["correct"], sim.group(1), int(sim.group(2)), result["metrics"]["sweep_s"]["value"]


def main():
    with open(os.path.join(HERE, "bench_pins.json")) as f:
        pins = json.load(f)
    failures = []
    for workload, pin in pins["workloads"].items():
        got = run(workload, pins["seed"], pins["seconds"])
        if isinstance(got, str):
            failures.append(f"{workload}: {got}")
            continue
        correct, digest, events, sweep_s = got
        print(f"{workload}: digest {digest}, sim.events {events}, sweep_s {sweep_s:.4f} (not checked)")
        if not correct:
            failures.append(f"{workload}: the run failed its correctness check")
        if digest != pin["digest"]:
            failures.append(f"{workload}: digest {digest}, pinned {pin['digest']}")
        if events != pin["sim_events"]:
            failures.append(f"{workload}: sim.events {events}, pinned {pin['sim_events']}")
    for failure in failures:
        print(f"bench_pins: FAIL {failure}")
    if failures:
        sys.exit(1)
    print(f"bench_pins: OK, {len(pins['workloads'])} workloads match their pins")


if __name__ == "__main__":
    main()
