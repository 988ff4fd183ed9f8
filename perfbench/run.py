#!/usr/bin/env python3
"""Build the bwc benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile|replay|bwcd \
        --seed N --seconds S --trace 0|1

The command line is checked before any work: an unknown flag, an unknown
workload or a bad value exits with status 2. The benchmark and the bwc
libraries it links are built with CMake under $CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr. The last line of stdout is the
benchmark's JSON result. Exit status is the benchmark's: 0 when every
check passed, 1 when an op failed or the build or run did not finish.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("compile", "replay", "bwcd")
# A run takes its window plus set-up and the off-the-clock checks, which
# grow with the window (on bwcd about half of it again); 60 s windows end
# well inside the timeout.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def usage(problem):
    print(f"run.py: {problem}", file=sys.stderr)
    print("usage: python3 perfbench/run.py --workload compile|replay|bwcd "
          "--seed N --seconds S --trace 0|1", file=sys.stderr)
    sys.exit(2)


def whole(flag, text, lo, hi):
    if (not text.isascii() or not text.isdigit() or len(text) > 20
            or not lo <= int(text) <= hi):
        usage(f"{flag} wants a whole number in [{lo}, {hi}], got {text!r}")
    return text


def parse(argv):
    values = {}
    checks = {
        "--workload": lambda v: v if v in WORKLOADS
        else usage(f"unknown workload {v!r}"),
        "--seed": lambda v: whole("--seed", v, 0, 2**64 - 1),
        "--seconds": lambda v: whole("--seconds", v, 1, MAX_SECONDS),
        "--trace": lambda v: whole("--trace", v, 0, 1),
    }
    if len(argv) % 2:
        usage(f"missing value for {argv[-1]}")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in checks:
            usage(f"unknown flag {flag!r}")
        if flag in values:
            usage(f"{flag} given twice")
        values[flag] = checks[flag](value)
    if "--workload" not in values:
        usage("--workload is required")
    values.setdefault("--seed", "1")
    values.setdefault("--seconds", "40")
    values.setdefault("--trace", "0")
    return values


def build(source, build_dir):
    """Configure and build the benchmark; False when either step fails."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(source), "-B", str(build_dir), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "bwcbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    args = parse(sys.argv[1:])
    source = Path(__file__).resolve().parent
    if not (source.parent / "src" / "CMakeLists.txt").is_file():
        print("run.py: the bwc sources (src/) are missing next to "
              f"{source.name}/", file=sys.stderr)
        return 1
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_root / "perfbench"
    if not build(source, build_dir):
        return 1
    command = [str(build_dir / "bwcbench"),
               "--workload", args["--workload"], "--seed", args["--seed"],
               "--seconds", args["--seconds"], "--trace", args["--trace"],
               "--scratch-dir", str(build_root / "tmp"),
               "--trace-dir", str(build_root / "trace")]
    # The host C compiler of the native engine writes its temporary files
    # under $TMPDIR; keep them inside the build tree too.
    scratch = (build_root / "tmp").resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    # Flush the file system before and after the run, so the write-back of
    # the build or of an earlier run's files and removals does not land in
    # this run's window, nor this run's in the next one.
    os.sync()
    proc = subprocess.Popen(command, env=dict(os.environ, TMPDIR=str(scratch)))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
        os.sync()
        return code
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s; stopped",
              file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
