#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (release profile) into
`$CARGO_TARGET_DIR`, default `.bench_build`, runs it as a child process, and
passes its output through. With `--trace 0` it adds `peak_rss_mib`, the
child's peak resident memory as the kernel reports it at exit, to the final
JSON line. With `--trace 1` the spans are written beside the build, to
`<target>/perfbench-trace-<workload>-<seed>.json`.

It exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        trace_file = f"perfbench-trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-file", os.path.join(target, trace_file)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = child.stdout.read().decode()
    child.stdout.close()
    # wait4 reaps the child and returns its own resource usage, including
    # the peak resident set size (ru_maxrss, KiB on Linux).
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: run failed (exit {child.returncode})")

    result = json.loads(lines[-1])
    if args.trace == "0":
        peak_rss_mib = usage.ru_maxrss / 1024.0
        lines.insert(-1, f"  {'peak_rss_mib':<28} {peak_rss_mib:>16.6f} MiB     peak resident memory")
        result["metrics"]["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
