#!/usr/bin/env python3
"""Compare two sets of romdb_bench result JSONs (parent vs change).

    python3 bench/romdb/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/romdb/compare.py --self-check SET_A_DIR SET_B_DIR

Reads the <workload>-<e2e|trace>-seed<n>.json files run.py writes.  For
every workload x end-to-end metric it prints each side's median and
quartiles and a verdict, using the bounds in BENCHMARK.json:

  REGRESSION   the change's median is worse than the parent's by more than
               the bound;
  unresolved   either side's spread (IQR / median) exceeds the bound, unless
               every change run beats every parent run;
  gain         at least ten pairs, the change wins >= 9/10 of them (paired
               by seed, ties count for neither) and the medians differ by
               more than the parent's IQR;
  same         otherwise.

Per-layer metrics (from --trace 1 results) are listed without a verdict;
the count.* values must repeat exactly for the same workload and seed.

Results whose provenance differs (flush profile, nproc, build type,
compiler, heap dir, threads, seconds, ROMULUS_* environment) are refused:
only the commit, source digest and seed may differ.  So is any result that
failed a correctness check (correct false or failed > 0).

--self-check compares two sets of the same commit: it exits non-zero on any
regression, any unresolved metric or any count.* mismatch.  Otherwise the
exit status is 1 on a regression, 2 on unusable input, else 0.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(HERE, "..", "..", "BENCHMARK.json")
VARYING = {"commit", "src_digest", "seed"}
MIN_PAIRS = 10  # a gain needs at least ten pairs (choosing-metrics §8)


def refuse(msg):
    sys.stderr.write(f"compare.py: {msg}\n")
    sys.exit(2)


def load_set(d):
    """{(kind, workload): [result, ...]} for the result JSONs in d.

    A run that failed any correctness check is refused outright: its
    timings describe a store that lost or corrupted data, so it can be
    neither a baseline nor a gain."""
    out = {}
    files = sorted(glob.glob(os.path.join(d, "*-seed*.json")))
    if not files:
        refuse(f"no result JSONs in {d}")
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("correct") is not True or r.get("failed") != 0:
            refuse(f"{f} failed its correctness checks ({r.get('failed')} of "
                   f"{r.get('attempted')} checked ops): refusing to compare")
        out.setdefault((r["kind"], r["workload"]), []).append(r)
    return out


def check_provenance(sets):
    ref, ref_file = None, None
    for name, s in sets:
        for results in s.values():
            for r in results:
                p = {k: v for k, v in r["provenance"].items() if k not in VARYING}
                if ref is None:
                    ref, ref_file = p, name
                elif p != ref:
                    diff = sorted(k for k in set(p) | set(ref) if p.get(k) != ref.get(k))
                    refuse(f"provenance differs between {ref_file} and {name} "
                           f"in {diff}: refusing to compare")


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def by_seed(results, metric):
    return {r["provenance"]["seed"]: r["metrics"][metric]["value"]
            for r in results if metric in r["metrics"]}


def verdict(parent, change, bound, higher_better):
    """Verdict for one metric; parent/change map seed -> value."""
    pv, cv = list(parent.values()), list(change.values())
    pq, cq = quartiles(pv), quartiles(cv)
    sign = -1.0 if higher_better else 1.0  # > 0 means worse
    worse = sign * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    better = (lambda c, p: c > p) if higher_better else (lambda c, p: c < p)
    spread = max((pq[2] - pq[0]) / pq[1] if pq[1] else 0.0,
                 (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0)
    common = sorted(set(parent) & set(change))
    pairs = ([(change[s], parent[s]) for s in common] if common else
             list(zip(sorted(cv), sorted(pv))))
    wins = sum(1 for c, p in pairs if better(c, p))
    if spread > bound and not all(better(c, p) for c in cv for p in pv):
        v = "unresolved"
    elif worse > bound:
        v = "REGRESSION"
    elif (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
          and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        v = "gain"
    else:
        v = "same"
    return pq, cq, worse, spread, f"{wins}/{len(pairs)}", v


def fmt_q(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main():
    ap = argparse.ArgumentParser(description="compare two romdb_bench result sets")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--self-check", action="store_true",
                    help="both sets come from the same commit")
    ap.add_argument("--bench", default=DEFAULT_BENCH, help="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as fh:
        bench = json.load(fh)
    sets = [(args.parent, load_set(args.parent)), (args.change, load_set(args.change))]
    check_provenance(sets)
    parent, change = sets[0][1], sets[1][1]

    bad = 0
    print(f"{'workload':13s} {'metric':32s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'worse':>7s} {'spread':>7s} {'wins':>6s} verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(("e2e", wl), []), change.get(("e2e", wl), [])
        if not p_runs or not c_runs:
            continue
        for m in bench["end_to_end"]:
            p, c = by_seed(p_runs, m["name"]), by_seed(c_runs, m["name"])
            if not p or not c:
                continue
            pq, cq, worse, spread, wins, v = verdict(
                p, c, m["bound"], m["better"] == "higher")
            print(f"{wl:13s} {m['name']:32s} {fmt_q(pq):32s} {fmt_q(cq):32s} "
                  f"{worse:+7.3f} {spread:7.3f} {wins:>6s} {v} (bound {m['bound']})")
            if v == "REGRESSION" or (args.self_check and v == "unresolved"):
                bad += 1

    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(("trace", wl), []), change.get(("trace", wl), [])
        if not p_runs or not c_runs:
            continue
        for m in bench["per_layer"]:
            p, c = by_seed(p_runs, m["name"]), by_seed(c_runs, m["name"])
            if not p or not c:
                continue
            note = ""
            if m["name"].startswith("count.") and args.self_check:
                diff = [s for s in set(p) & set(c) if p[s] != c[s]]
                if diff:
                    note = f"  count mismatch on seeds {sorted(diff)}"
                    bad += 1
            print(f"{wl:13s} {m['name']:32s} {fmt_q(quartiles(list(p.values()))):32s} "
                  f"{fmt_q(quartiles(list(c.values()))):32s}{note}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
