#!/usr/bin/env python3
"""End-to-end check of tools/heap_inspect: it reads a heap without writing
it, and refuses a file that is not a Romulus heap.

    heap_inspect_check.py <heap_inspect binary> <kvstore_cli binary>

In a temporary ROMULUS_PMEM_DIR, kvstore_cli stores one key in a fresh
RomulusLog heap.  heap_inspect on that heap must exit 0, name RomulusLog and
list RomulusDB's root slot; `--engine lr` (an option that no longer exists)
must be a usage error; the key must still read back.  On a 1 MiB file of
zeros heap_inspect must exit 2.  Neither file's SHA-256 may change.
"""
import hashlib
import os
import subprocess
import sys
import tempfile


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    inspect, kvstore = sys.argv[1], sys.argv[2]
    failures = []

    def check(ok, what, proc=None):
        if not ok:
            out = f"\n{proc.stdout}{proc.stderr}" if proc else ""
            failures.append(what + out)

    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, ROMULUS_PMEM_DIR=tmp)

        def run(*args):
            return subprocess.run(list(args), env=env, capture_output=True,
                                  text=True, timeout=120)

        put = run(kvstore, "put", "alpha", "one")
        check(put.returncode == 0, "kvstore_cli put failed", put)
        heap = os.path.join(tmp, "romulus_kvstore.heap")
        before = sha256(heap)

        r = run(inspect, heap)
        check(r.returncode == 0, f"heap exit {r.returncode}, want 0", r)
        check("engine      : RomulusLog" in r.stdout, "variant not RomulusLog", r)
        check("root[63]" in r.stdout, "RomulusDB's root[63] not listed", r)
        check(sha256(heap) == before, "heap_inspect wrote the heap")

        r = run(inspect, heap, "--engine", "lr")
        check(r.returncode == 2, f"--engine exit {r.returncode}, want 2", r)
        check(sha256(heap) == before, "heap_inspect --engine wrote the heap")

        get = run(kvstore, "get", "alpha")
        check(get.stdout.strip() == "one", "key lost after inspection", get)

        zeros = os.path.join(tmp, "zeros.heap")
        with open(zeros, "wb") as f:
            f.write(bytes(1 << 20))
        zeros_before = sha256(zeros)
        r = run(inspect, zeros)
        check(r.returncode == 2, f"zero file exit {r.returncode}, want 2", r)
        check("not a Romulus heap" in r.stderr, "no refusal message", r)
        check(sha256(zeros) == zeros_before, "heap_inspect wrote the zero file")
        check(os.path.getsize(zeros) == 1 << 20, "zero file resized")

    for f in failures:
        print("FAIL:", f)
    print("heap_inspect_check:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
