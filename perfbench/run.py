#!/usr/bin/env python3
"""End-to-end host-time benchmark of the PATRONoC simulator.

    python3 perfbench/run.py --workload fig4-quick --seed 1 --seconds 25 --trace 0

Workloads: ``fig4-quick``, ``fig8-quick``, ``service-faults`` (see
``workloads.py`` and ``README.md``).  Run from anywhere inside a source
checkout; the simulator is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once with every layer's entry points
wrapped and once without, checks that both produce the same Results,
and reports the per-layer split plus the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--pin`` (seed 1 only) rewrites ``pinned.json`` with the digests of
the Results this run produced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("fig4-quick", "fig8-quick", "service-faults")
#: The runs use the default kernel, no ambient store or cache, and the
#: code fingerprint of the checkout itself.
UNSET_ENV = ("REPRO_KERNEL", "REPRO_CACHE", "REPRO_STORE",
             "REPRO_CODE_FINGERPRINT", "REPRO_SWEEP_TEST_CRASH")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro; "
                "print(time.perf_counter() - t)")
CALIBRATION_ITERS = 1_000_000


def calibration_s() -> float:
    """A fixed pure-Python loop: a diagnostic of host speed only, never
    divided into a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def import_s(repeats: int) -> list[float]:
    """``import repro`` timed in fresh interpreters, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout))
    return samples


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measured time; whole passes (fig) or service "
                         "cycles are repeated while they fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pinned.json from this run (seed 1)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.pin and args.seed != 1:
        ap.error("--pin pins the default seed 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}/repro; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # Every temporary store and trace file of this run lives in here.
    tempfile.tempdir = str(scratch)
    try:
        return _run(args, scratch)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path) -> int:
    calib = [calibration_s()]
    probes = [] if args.trace else import_s(5)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401

    own_import_s = time.perf_counter() - t0
    import workloads

    trace_dir = scratch / "trace"
    trace_dir.mkdir()
    if args.workload == "service-faults":
        out = workloads.service_workload(args.seed, args.seconds,
                                         bool(args.trace), trace_dir)
    else:
        out = workloads.fig_workload(args.workload.split("-")[0], args.seed,
                                     args.seconds, bool(args.trace),
                                     trace_dir)
    calib.append(calibration_s())

    if args.trace:
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        shutil.copyfile(trace_dir / "spans.json", spans)
        metrics = out.layers
        print(f"# {args.workload} seed={args.seed}: per-layer split of "
              f"{out.layers['trace.wall_s'][0]:.3f} s traced host time "
              f"(spans: {spans.relative_to(ROOT)})")
        print(f"{'layer':<20}{'calls':>12}{'self_s':>10}{'share':>8}")
        for layer, row in out.table.items():
            print(f"{layer:<20}{row['calls']:>12}{row['self_s']:>10.3f}"
                  f"{row['share']:>8.3f}")
    else:
        import_med = statistics.median(probes)
        out.metrics["setup_s"] = (import_med + out.build_s, "s")
        out.info["import_s"] = (import_med, "s")
        out.info["setup_after_import_s"] = (out.build_s, "s")
        metrics = out.metrics
    out.info["failed_frac"] = (out.failed / max(1, out.attempted), "ratio")
    out.info["own_import_s"] = (own_import_s, "s")
    out.info["calibration_s"] = (statistics.median(calib), "s")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in list(metrics.items()) + list(out.info.items()):
        layer, _, column = name.rpartition(".")
        if layer in out.table and column in ("calls", "self_s", "share"):
            continue  # in the table above
        print(f"metric {name} = {value:.6g} {unit}")
    for text in out.problems:
        print(f"CHECK FAILED: {text}")
    if args.pin:
        pins = (json.loads(workloads.PINNED.read_text())
                if workloads.PINNED.exists() else {})
        pins[args.workload] = out.digests
        workloads.PINNED.write_text(json.dumps(pins, indent=1) + "\n")
        print(f"pinned {len(out.digests)} digests for {args.workload}")
    print(json.dumps({
        "correct": not out.problems and out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
