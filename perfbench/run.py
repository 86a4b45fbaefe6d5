#!/usr/bin/env python3
"""Build the real-engine benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wordcount-zipf --seed 1 \
        --seconds 20 --trace 0

--workload is wordcount-zipf, sort-spill-tcp, service-mix, or all.
The engine (../src) and the benchmark program (perfbench/src) are
compiled into .bench_build (or $CARGO_TARGET_DIR when set) on the first
run; later runs only rebuild what changed.  Spill files, KV-store logs and temp
files stay under that directory.  The benchmark's standard output is
passed through; its last line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("wordcount-zipf", "sort-spill-tcp", "service-mix", "all")
# A run must end within 180 s; stop the benchmark well before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(out):
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {REPO / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(os.cpu_count() or 4)
    steps = [["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sink.flush()
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log})")
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out = build_dir()
    binary = build(out)
    scratch = out / "scratch"
    tmp = out / "tmp"
    for d in (scratch, tmp):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace, "--scratch", str(scratch)]
    proc = subprocess.Popen(command, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
