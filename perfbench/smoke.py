#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json, and the diagnostic serve-hot
workload, at its tiny size (--tiny), untraced and traced, and checks that
each run passes its output checks and reports exactly the metric names
BENCHMARK.json declares for that mode, with the declared units. Run from the
repository root:

    python3 perfbench/smoke.py

Exits non-zero if any run fails a check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run by hand, not gated (README.md "Workloads" says why).
DIAGNOSTIC_WORKLOADS = ("serve-hot",)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads + list(DIAGNOSTIC_WORKLOADS):
        for trace in ("0", "1"):
            cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                                      "--seconds", "1", "--trace", trace,
                                      "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = "%s --trace %s" % (workload, trace)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no JSON result line (exit %d): %s" %
                                (proc.returncode, proc.stderr[-400:]))
            if result is not None:
                if proc.returncode != 0:
                    problems.append("exit code %d" % proc.returncode)
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if result.get("correct") is not True or result.get("failed"):
                    problems.append("output checks failed")
                if not result.get("attempted", 0) >= 1:
                    problems.append("attempted < 1")
                metrics = result.get("metrics", {})
                want = declared[trace]
                if set(metrics) != set(want):
                    problems.append("metric names differ: missing %s, extra %s"
                                    % (sorted(set(want) - set(metrics)),
                                       sorted(set(metrics) - set(want))))
                for name, entry in metrics.items():
                    if name in want and entry.get("unit") != want[name]:
                        problems.append("%s unit %r, declared %r" %
                                        (name, entry.get("unit"), want[name]))
                    value = entry.get("value")
                    if not isinstance(value, (int, float)) or \
                            not math.isfinite(value):
                        problems.append("%s value %r" % (name, value))
            status = "ok" if not problems else "FAIL"
            print("%-28s %s" % (label, status))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
