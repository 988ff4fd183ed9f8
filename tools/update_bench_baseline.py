#!/usr/bin/env python3
"""Regenerate BENCH_baseline.json entries from repeated --json bench runs.

Usage:
    update_bench_baseline.py BUILD_DIR [RUNS] [BENCH ...]

Runs each baselined bench binary RUNS times (default 3) with the flags CI's
bench-regression job uses (--smoke for the wall-clock benches), takes the
per-metric median, and writes BENCH_baseline.json next to this script's
repo root. Naming BENCHes (e.g. native_memsim_throughput) re-pins only
those entries; every other bench keeps its committed baseline. Commit the
result together with whatever change moved the numbers;
tools/check_bench_regression.py fails CI when a later run drifts >20%
worse than these medians.
"""

import json
import pathlib
import statistics
import subprocess
import sys

# (binary relative to the build dir, extra args). The deterministic
# model benches need one run; repetition only matters for wall-clock.
BENCHES = [
    ("bench/fig3_kernel_bandwidth", ["--json"]),
    ("bench/fig_multicore_scaling", ["--json"]),
    ("bench/autotune_search", ["--json"]),
    ("bench/layout_traffic", ["--json"]),
    ("bench/native_interpreter_throughput", ["--smoke", "--json"]),
    ("bench/native_fastforward_throughput", ["--smoke", "--json"]),
    ("bench/native_memsim_throughput", ["--smoke", "--json"]),
    ("bench/native_pipeline_throughput", ["--smoke", "--json"]),
    ("bench/native_codegen_throughput", ["--smoke", "--json"]),
    ("bench/server_throughput", ["--smoke", "--json"]),
]


def main(argv: list[str]) -> int:
    args = argv[1:]
    if not args:
        print("usage: update_bench_baseline.py BUILD_DIR [RUNS] [BENCH ...]",
              file=sys.stderr)
        return 2
    build = pathlib.Path(args.pop(0))
    runs = int(args.pop(0)) if args and args[0].isdigit() else 3
    known = {pathlib.Path(rel).name for rel, _ in BENCHES}
    unknown = [name for name in args if name not in known]
    if unknown:
        print(f"unknown bench(es): {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(known))}", file=sys.stderr)
        return 2
    chosen = [(rel, a) for rel, a in BENCHES
              if not args or pathlib.Path(rel).name in args]

    out_path = pathlib.Path(__file__).resolve().parent.parent
    out_path = out_path / "BENCH_baseline.json"
    baseline: dict[str, dict[str, float]] = {}
    if out_path.exists():
        with open(out_path, encoding="utf-8") as f:
            baseline = json.load(f)
    for rel, flags in chosen:
        samples: dict[str, list[float]] = {}
        name = None
        for _ in range(runs):
            # check=False: a smoke-floor trip on a loaded host still prints
            # valid metrics, and the medians are what we're here for.
            proc = subprocess.run([str(build / rel), *flags], check=False,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"warning: {rel} exited {proc.returncode}",
                      file=sys.stderr)
            obj = json.loads(proc.stdout.strip().splitlines()[0])
            name = obj.pop("bench")
            for metric, value in obj.items():
                samples.setdefault(metric, []).append(float(value))
        assert name is not None
        baseline[name] = {m: round(statistics.median(v), 4)
                          for m, v in samples.items()}
        print(f"{name}: {baseline[name]}")

    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
