"""Run one benchmark workload as alternating base/change pairs.

Usage, from anywhere inside a git checkout of this repository::

    python3 tools/bench_pairs.py --base <rev> --workload W --pairs N \\
        [--seconds S] [--size tiny] [--seed F] [--out-dir DIR]

The change side is this checkout's working tree; the base side is ``<rev>``,
checked out into a temporary ``git worktree`` that is removed afterwards.
Each side runs ``benchmark/run.py`` from its own checkout as a subprocess,
so each measures its own ``src``. Pair i runs both sides on seed F + i, and
the side that runs first alternates from pair to pair.

For every end-to-end metric in ``BENCHMARK.json`` it prints each pair, both
medians, the base's interquartile range and how many pairs the change won
(by the metric's ``better`` direction). One record of the whole comparison
is appended to ``BENCH_<workload>.json`` in ``--out-dir`` (default: the
repository root), a JSON list with one record per comparison. The exit code
is 1 when any run was not ``correct``, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(("git", "-C", ROOT) + args, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(checkout: str, workload: str, seed: int, seconds: float,
             size: str) -> dict:
    """One ``benchmark/run.py`` run in ``checkout``: its last-line record
    plus the ``environment`` it printed; ``correct`` is False when the run
    printed no record."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}, "environment": {}}
    record["environment"] = next(
        (json.loads(line.partition(" ")[2]) for line in lines
         if line.startswith("environment ")), {})
    return record


def iqr(values: list) -> float:
    """Distance between the quartiles; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metrics: list, pairs: list) -> dict:
    """Per metric: both sides' values, medians and IQRs, and the change's
    wins. ``pairs`` holds (base record, change record) per pair."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "base": base, "change": change,
                     "base_median": statistics.median(base),
                     "change_median": statistics.median(change),
                     "base_iqr": iqr(base), "change_iqr": iqr(change),
                     "wins": wins}
    return out


def append_record(path: str, record: dict) -> None:
    records = []
    if os.path.exists(path):
        with open(path) as f:
            records = json.load(f)
    records.append(record)
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))

    tmp = tempfile.mkdtemp(prefix="bench_pairs-")
    base_dir = os.path.join(tmp, "base")
    _git("worktree", "add", "--detach", base_dir, base_sha)
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("base", base_dir), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            runs = {name: run_side(where, args.workload, seed, seconds,
                                   args.size) for name, where in sides}
            pairs.append((runs["base"], runs["change"]))
            print(f"pair {i + 1} seed {seed} ({sides[0][0]} first): "
                  + "  ".join(f"{name} correct={runs[name]['correct']}"
                              for name, _ in sides), flush=True)
    finally:
        _git("worktree", "remove", "--force", base_dir)
        shutil.rmtree(tmp, ignore_errors=True)

    correct = all(b["correct"] and c["correct"] for b, c in pairs)
    summary = summarize(bench["end_to_end"], pairs) if correct else {}
    for name, s in summary.items():
        print(f"{name} ({s['unit']}, {s['better']} is better)")
        for i, (b, c) in enumerate(zip(s["base"], s["change"])):
            print(f"  pair {i + 1}: base {b:.6g}  change {c:.6g}")
        print(f"  median: base {s['base_median']:.6g}  change "
              f"{s['change_median']:.6g}  base IQR {s['base_iqr']:.6g}  "
              f"change wins {s['wins']} of {len(pairs)}")
    env = pairs[0][1]["environment"]
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "workload": args.workload, "size": args.size, "seconds": seconds,
        "base": base_sha, "base_rev": args.base,
        "change": change_sha, "change_dirty": dirty,
        "pairs": len(pairs), "seeds": [args.seed + i for i in range(len(pairs))],
        "correct": correct,
        "host": {k: env.get(k) for k in ("python", "numpy", "blas",
                                         "blas_threads", "nproc", "machine")},
        "metrics": summary,
    }
    append_record(os.path.join(args.out_dir, f"BENCH_{args.workload}.json"),
                  record)
    if not correct:
        print("FAILED: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
