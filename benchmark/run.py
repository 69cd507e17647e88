"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 benchmark/run.py --workload train_r20_dense_f32 --seed 1 \\
        --seconds 20 --trace 0

The program under test is ``linearskip`` from the checkout's ``src``.
Lines before the last one print each metric with its unit; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The full record,
with the run environment and, when traced, every span, goes to
``.bench_out/`` in the checkout. The exit code is 0 when every check
passed, 1 when one failed, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1

# What each generic end-to-end metric is called on each kind of workload.
WORKLOAD_NAMES = {
    "train": {"op_ms_p50": "step_ms_p50", "op_ms_tail": "step_ms_tail",
              "images_per_s": "train_images_per_s"},
    "analyze": {"op_ms_p50": "analysis_ms_p50"},
}


def _import_program():
    """Import linearskip from this checkout's ``src`` and nowhere else;
    returns why that failed, or None."""
    if not os.path.isdir(os.path.join(SRC, "linearskip")):
        return f"no linearskip package under {SRC}"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import linearskip
    if not os.path.abspath(linearskip.__file__).startswith(SRC + os.sep):
        return f"imported linearskip from {linearskip.__file__}, not {SRC}"
    return None


def _blas_threads():
    """OpenBLAS's own thread count, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": NPROC,
            "machine": platform.machine(), "seed": seed,
            "workload": workload.name, "why": workload.why}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny (K=1, batch 2) is for the benchmark's tests")
    args = parser.parse_args(argv)

    error = _import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from harness import END_TO_END, run_workload
    from tracing import LAYER_METRICS
    from workloads import workloads

    table = workloads(args.size)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(table)}")
    workload = table[args.workload]
    run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    env = environment(workload, args.seed)

    names = [n for n, _ in (LAYER_METRICS if args.trace else END_TO_END)]
    metrics = {n: {"value": run["metrics"][n], "unit": run["units"][n]}
               for n in names}
    correct = run["failed"] == 0
    record = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics,
              "details": run["details"], "problems": run["problems"],
              "environment": env}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if run["spans"] is not None:
        with open(os.path.join(OUT_DIR, stem + ".spans.json"), "w") as f:
            json.dump({"fields": ["unit", "name", "stage", "start", "end",
                                  "parent"], "spans": run["spans"]}, f)

    aliases = WORKLOAD_NAMES[args.workload.split("_")[0]]
    print("environment " + json.dumps(env))
    for n in names:
        alias = f" ({aliases[n]})" if n in aliases else ""
        print(f"{n}{alias} = {run['metrics'][n]:.6g} {run['units'][n]}")
    d = run["details"]
    if not args.trace:
        print(f"op_ms_tail is p{d['op_ms_tail_percentile']} with "
              f"{d['op_ms_tail_samples_beyond']} of {d['rounds']} samples beyond")
    print(f"fail_fraction = {d['fail_fraction']:.6g} "
          f"({run['failed']} of {run['attempted']})")
    for problem in run["problems"][:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # One caller on one BLAS thread. On a 2-core x86-64 VM shared with other
    # tenants, a ResNet-56 step with two OpenBLAS threads took 0.75 s when
    # the host was idle and 2.4 to 2.7 s when it was loaded; with one thread
    # it stayed at 0.8 to 0.9 s. Set before numpy is imported, which is when
    # OpenBLAS reads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
