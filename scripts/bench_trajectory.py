#!/usr/bin/env python3
"""bench_trajectory: append / regression-check the bench smoke artifacts.

The CI smoke jobs run each bench three times with a short measurement window
and emit BENCH_<name>.json per run (bench_common.hpp JsonEmitter).
This script turns those artifacts into a *trajectory*: one JSONL line per
recorded run under bench/trajectory/<name>.jsonl, committed to the repo, so
the perf-relevant counters have a history the CI can diff against.

Metrics come in two classes:

  counter     Deterministic per-configuration counts (pwbs/tx, coalesced
              runs/tx, max concurrent writers).  These do not wobble with
              machine load — a change means the commit path changed.  The
              check fails when one regresses by more than --counter-threshold
              (default 10%).
  throughput  Wall-clock rates (ns/tx, puts/s, GiB/s).  CI runners are noisy,
              so the default --throughput-threshold is a deliberately
              generous 50%: it only catches collapses, not jitter.

Usage
-----
    bench_trajectory.py append BENCH_commit_path.json [--dir DIR] [--note S]
    bench_trajectory.py check  BENCH_commit_path.json [MORE.json ...] [--dir DIR]
                               [--counter-threshold F] [--throughput-threshold F]

`append` flattens the artifact into {metric-key: value}, stamps it with the
current git commit, and appends to bench/trajectory/<bench>.jsonl.
`check` takes one or more artifacts of the same bench, reduces each metric
key to its median over them, compares the medians against the LAST
committed trajectory point and exits 1 listing every regression (0 when
clean or when there is no history yet).  One short smoke run of a wall-clock
cell can be off by 2x; the median of a few runs is what the thresholds
gate.  Metric keys look like `tx_sweep[8192,coalesce+nt].pwbs_per_tx`.

Exit status: 0 = ok, 1 = regression(s), 2 = usage/IO error.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

# (metric-class, better-direction) per array-record field, keyed by the
# artifact's "bench" name.  `key` names the fields that identify a record.
SCHEMAS = {
    "commit_path": {
        "tx_sweep": {
            "key": ("footprint", "mode"),
            "metrics": {
                "pwbs_per_tx": ("counter", "lower"),
                "runs_per_tx": ("counter", "lower"),
                "ns_per_tx": ("throughput", "lower"),
            },
        },
        # The same sweep under CLFLUSH, RomulusDB's profile.
        "tx_sweep_clflush": {
            "key": ("footprint", "mode"),
            "metrics": {
                "pwbs_per_tx": ("counter", "lower"),
                "runs_per_tx": ("counter", "lower"),
                "ns_per_tx": ("throughput", "lower"),
            },
        },
        "persist_copy": {
            "key": ("bytes", "path"),
            "metrics": {"gib_s": ("throughput", "higher")},
        },
    },
    "readers": {
        "ab": {
            "key": ("engine", "threads", "mode"),
            "metrics": {
                "read_tx_per_sec": ("throughput", "higher"),
            },
        },
        "latency": {
            "key": ("engine", "mode"),
            "metrics": {
                "ns_per_read": ("throughput", "lower"),
            },
        },
    },
    "stripe": {
        "disjoint": {
            "key": ("engine", "threads", "mode"),
            "metrics": {
                # fp_commits stays in the artifact for humans but is not
                # gated: in a fixed wall-clock window it is as noisy as the
                # throughput it tracks.
                "tx_per_sec": ("throughput", "higher"),
            },
        },
        "conflict": {
            "key": ("engine", "threads", "mode"),
            "metrics": {
                "tx_per_sec": ("throughput", "higher"),
            },
        },
    },
    "sharding": {
        "sweep": {
            "key": ("threads", "shards"),
            "metrics": {
                "max_concurrent_writers": ("counter", "higher"),
                "puts_per_sec": ("throughput", "higher"),
            },
        },
        "direct_api": {
            "key": ("threads",),
            "metrics": {"puts_per_sec": ("throughput", "higher")},
        },
    },
}


def flatten(artifact):
    """Artifact JSON -> (bench_name, {metric_key: (value, class, direction)})."""
    bench = artifact.get("bench")
    schema = SCHEMAS.get(bench)
    if schema is None:
        raise ValueError(f"unknown bench '{bench}' "
                         f"(known: {', '.join(sorted(SCHEMAS))})")
    out = {}
    for array, spec in schema.items():
        for rec in artifact.get(array, []):
            ident = ",".join(str(rec[k]) for k in spec["key"])
            for field, (cls, direction) in spec["metrics"].items():
                if field in rec:
                    out[f"{array}[{ident}].{field}"] = (
                        float(rec[field]), cls, direction)
    if not out:
        raise ValueError(f"artifact for '{bench}' holds no known metrics")
    return bench, out


def git_head(repo):
    try:
        return subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_artifact(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_trajectory: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def last_point(traj_path):
    if not traj_path.exists():
        return None
    last = None
    with open(traj_path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                last = line
    return json.loads(last) if last else None


def cmd_append(args, repo):
    artifact = load_artifact(args.artifact)
    bench, metrics = flatten(artifact)
    traj_dir = Path(args.dir) if args.dir else repo / "bench" / "trajectory"
    traj_dir.mkdir(parents=True, exist_ok=True)
    point = {
        "bench": bench,
        "commit": git_head(repo),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "profile": artifact.get("profile", "unknown"),
        "metrics": {k: v for k, (v, _, _) in metrics.items()},
    }
    if args.note:
        point["note"] = args.note
    traj_path = traj_dir / f"{bench}.jsonl"
    with open(traj_path, "a", encoding="utf-8") as f:
        f.write(json.dumps(point, sort_keys=True) + "\n")
    print(f"bench_trajectory: appended {len(metrics)} metric(s) "
          f"to {traj_path} at {point['commit']}")
    return 0


def median_metrics(paths):
    """Artifacts of one bench -> (bench_name, run count, {metric_key:
    (median value, class, direction)}) over the runs that report each key."""
    runs = [flatten(load_artifact(p)) for p in paths]
    bench = runs[0][0]
    others = sorted({b for b, _ in runs if b != bench})
    if others:
        raise ValueError(f"check needs artifacts of one bench, got "
                         f"'{bench}' and {', '.join(map(repr, others))}")
    values = {}
    for _, metrics in runs:
        for key, (value, cls, direction) in metrics.items():
            values.setdefault(key, ([], cls, direction))[0].append(value)
    return bench, len(runs), {
        key: (statistics.median(vs), cls, direction)
        for key, (vs, cls, direction) in values.items()}


def cmd_check(args, repo):
    bench, nruns, metrics = median_metrics(args.artifact)
    traj_dir = Path(args.dir) if args.dir else repo / "bench" / "trajectory"
    base = last_point(traj_dir / f"{bench}.jsonl")
    if base is None:
        print(f"bench_trajectory: no trajectory for '{bench}' yet — "
              f"nothing to check against")
        return 0
    thresholds = {"counter": args.counter_threshold,
                  "throughput": args.throughput_threshold}
    regressions, checked = [], 0
    for key, (value, cls, direction) in metrics.items():
        old = base["metrics"].get(key)
        if old is None:
            continue  # new configuration: no baseline
        checked += 1
        if old == 0:
            worse = value if direction == "lower" else -value
            rel = 1.0 if worse > 0 else 0.0
        elif direction == "lower":
            rel = (value - old) / abs(old)
        else:
            rel = (old - value) / abs(old)
        if rel > thresholds[cls]:
            regressions.append(
                f"  {key} [{cls}]: {old:g} -> {value:g} "
                f"({rel * 100:+.1f}% worse, limit {thresholds[cls] * 100:.0f}%)")
    point_id = f"{base.get('commit', '?')} ({base.get('date', '?')})"
    runs = f"median of {nruns} runs" if nruns > 1 else "1 run"
    if regressions:
        print(f"bench_trajectory: {len(regressions)} regression(s) for "
              f"'{bench}' ({runs}) vs {point_id}:")
        print("\n".join(regressions))
        return 1
    print(f"bench_trajectory: '{bench}' ok — {checked} metric(s) ({runs}) "
          f"within thresholds vs {point_id}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("append", "check"):
        p = sub.add_parser(name)
        if name == "append":
            p.add_argument("artifact", help="BENCH_<name>.json from a bench run")
        else:
            p.add_argument("artifact", nargs="+",
                           help="BENCH_<name>.json from one or more runs of "
                           "the same bench; each metric's median is gated")
        p.add_argument("--dir", help="trajectory dir "
                       "(default: <repo>/bench/trajectory)")
        if name == "append":
            p.add_argument("--note", help="free-form annotation for the point")
        else:
            p.add_argument("--counter-threshold", type=float, default=0.10,
                           help="max relative regression for deterministic "
                           "counters (default 0.10)")
            p.add_argument("--throughput-threshold", type=float, default=0.50,
                           help="max relative regression for wall-clock "
                           "rates (default 0.50)")
    args = ap.parse_args(argv)
    repo = Path(__file__).resolve().parent.parent
    try:
        return (cmd_append if args.cmd == "append" else cmd_check)(args, repo)
    except ValueError as e:
        print(f"bench_trajectory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
