#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (quartile distance / median).

    python3 perfbench/steadiness.py --workload service-faults --seeds 1-5

Reads the command, ``run_seconds`` and bounds from ``BENCHMARK.json``;
prints one Markdown row per metric, marking spreads above a third of the
metric's bound.  Raw values go to ``perfbench/out/steadiness-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    print("| workload | metric | median | q1 | q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        calib: list[float] = []
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed",
                                   str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: checks failed\n"
                                 + proc.stdout)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            calib += [float(line.split()[3]) for line in lines
                      if line.startswith("metric calibration_s ")]
        values["calibration_s (diagnostic)"] = calib
        raw[workload] = values
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = "" if bound is None or \
                spread < bound / 3 else " **over**"
            third = f"{bound / 3:.3f}" if bound is not None else "-"
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.3f}{flag} | {third} |", flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seeds": args.seeds, "values": raw},
                               indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
