#!/usr/bin/env python3
"""Build and run romdb_bench, the RomulusDB end-to-end benchmark.

    python3 bench/romdb/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/romdb/run.py --counts [--workload <name>] [--seed <n>]

Builds bench/romdb (a standalone CMake project over ../../src) into
$CARGO_TARGET_DIR/romdb (default .bench_build/romdb) from the root of the
checkout, then runs the binary.  Its stdout passes through unchanged: one
`workload.metric value unit` line per metric, then the JSON summary as the
last line.  Each run also writes a result JSON with provenance (and, with
--trace 1, a trace-<workload>.jsonl of sampled spans) to --out, default
<build dir>/results; compare.py reads those.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_DIR = os.path.join(ROOT, "bench", "romdb")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "romdb")


def build(bdir):
    """Configure once, then an incremental build (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing from this checkout")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "romdb_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "romdb_bench")


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("bench", "romdb")):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--counts", action="store_true",
                    help="deterministic count pass only (1 thread, fixed ops)")
    ap.add_argument("--out", help="directory for result JSONs and traces")
    args = ap.parse_args()
    if not args.counts and (not args.workload or args.seconds is None):
        fail("--workload and --seconds are required")

    bdir = build_dir()
    exe = build(bdir)
    out = os.path.abspath(args.out or os.path.join(bdir, "results"))
    os.makedirs(out, exist_ok=True)

    cmd = [exe, "--seed", str(args.seed)]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.counts:
        cmd += ["--counts"]
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", out, "--commit", commit_id(),
                "--src-digest", source_digest()]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"romdb_bench exceeded {RUN_TIMEOUT_S} s and was killed")
    sys.exit(rc)


if __name__ == "__main__":
    main()
