#!/usr/bin/env python3
"""Smoke test of the benchmark with short runs.

Runs the `small` workload untraced and traced on the pinned seed 1 and
untraced on the unpinned seed 2, and the `paper` workload untraced on
seed 1, each with a short `--seconds`, then checks that:

* every run is correct with zero failed operations;
* every untraced run emits exactly the `end_to_end` metrics and every
  traced run exactly the `per_layer` metrics, each with its declared unit
  and a numeric value;
* every correctness gate ran at least once.

Run from the repository root: `python3 benchmark/smoke.py`.
"""

import json
import subprocess
import sys

BUILD = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "benchmark/Cargo.toml", "--"]

# (workload, seed, trace) -> gates that run must report. Seed 1 is
# pinned, seed 2 is not, so both the pin and the floor run.
RUNS = {
    ("small", 1, 0): ["serve.reply_equals_offline", "table3.pinned",
                      "table3.repeat_equals_first",
                      "table3.bitplane_equals_packed", "sim.pinned",
                      "sim.part_equals_seq", "sim.batch_equals_sequential"],
    ("small", 1, 1): ["table3.chip_replay_equals_evaluate",
                      "table3.bitplane_replay_equals_batch"],
    ("small", 2, 0): ["table3.accuracy_floor"],
    ("paper", 1, 0): ["table3.pinned", "sim.pinned"],
}
SECONDS = 4


def run(workload, seed, trace):
    cmd = BUILD + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    if workloads != {w for w, _, _ in RUNS}:
        problems.append(f"workloads {sorted(workloads)} differ from the smoke runs")
    for (name, seed, trace), gates in RUNS.items():
        host, result = run(name, seed, trace)
        tag = f"{name} seed={seed} trace={trace}"
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{tag}: correct={result['correct']} "
                            f"failed={result['failed']} attempted={result['attempted']}")
        emitted = result["metrics"]
        for metric, unit in declared[trace].items():
            if metric not in emitted:
                problems.append(f"{tag}: metric {metric} not emitted")
            elif emitted[metric]["unit"] != unit:
                problems.append(f"{tag}: metric {metric}: unit "
                                f"{emitted[metric]['unit']} != declared {unit}")
            elif not isinstance(emitted[metric]["value"], (int, float)):
                problems.append(f"{tag}: metric {metric} has no numeric value")
        for metric in emitted:
            if metric not in declared[trace]:
                problems.append(f"{tag}: emitted metric {metric} is not declared")
        for gate in gates:
            g = host["gates"].get(gate)
            if not g or g["checked"] < 1:
                problems.append(f"{tag}: gate {gate} did not run")
        print(f"ok  {tag}: {len(emitted)} metrics, gates {sorted(host['gates'])}")
    if problems:
        print("\n".join(problems))
        sys.exit(1)
    print("smoke: every metric emitted with its unit, every gate ran")


if __name__ == "__main__":
    main()
