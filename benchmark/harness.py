"""Run one workload and collect its metrics.

A run has three phases:

1. set-up, ``SETUP_REPEATS`` times: build the nets and data from the seed
   and run one warm-up op; ``setup_s`` is the median;
2. untimed ops under ``tracemalloc`` (for the train workloads these are
   the steps of the reference trajectory); memory is never measured
   during timed ops, because tracing allocations slows an op by ~1.5x;
3. the timed closed loop: rounds of ops until ``seconds`` have passed.
   A round is one op per net the workload takes in turn.

With tracing on, set-up and every second round run with the tracer
installed; the other rounds stay untraced, so the two medians give the
tracing overhead. Every op's outputs are checked outside its timed
interval; an op fails if any check does.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from tracing import LAYER_METRICS, Tracer, layer_metrics, unit_totals

SETUP_REPEATS = 3
MIB = float(2 ** 20)
# tracemalloc does not see numpy's reuse of cached small buffers (< 1 KiB)
# or CPython's free lists, so the same op's byte counts drift by a few
# bytes to a few KiB between repeats; counts must agree to this bound.
MEMORY_REPEAT_BYTES = 64 * 1024

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("images_per_s", "1/s"), ("peak_mem_mib", "MiB"))


@dataclass(frozen=True)
class Memory:
    peak_bytes: int     # tracemalloc peak above the pre-op baseline
    tape_bytes: int     # most bytes held right after a forward tape completed


def measure_memory(op):
    """Run ``op(probe=...)`` under tracemalloc; returns (result, Memory)."""
    held = []
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = op(probe=lambda graph: held.append(
            tracemalloc.get_traced_memory()[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, Memory(peak - base, max(held) - base)


def tail(samples) -> tuple:
    """(value, percentile, samples beyond it): the highest percentile with
    at least ten samples beyond it, or the median below 21 samples."""
    s = sorted(samples)
    n = len(s)
    if n - 10 > n / 2:
        return s[n - 11], math.floor(100 * (n - 10) / n), 10
    return statistics.median(s), 50, n // 2


class Ledger:
    """Attempted and failed checked items, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def _repeat_problems(memories: list) -> list:
    """Memory counts of consecutive measured ops must agree."""
    return [f"memory of untimed op {i + 1} {b} differs from op {i} {a}"
            for i, (a, b) in enumerate(zip(memories, memories[1:]))
            if max(abs(a.peak_bytes - b.peak_bytes),
                   abs(a.tape_bytes - b.tape_bytes)) > MEMORY_REPEAT_BYTES]


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    ledger = Ledger()
    tracer = Tracer(workload.input_shape()[1]) if trace else None

    setup_s, setup_units = [], []
    for i in range(SETUP_REPEATS):
        if tracer:
            tracer.unit = f"setup{i}"
            setup_units.append(tracer.unit)
            tracer.install()
        try:
            start = time.perf_counter()
            workload.setup(seed)
            warm = workload.op()
            setup_s.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.uninstall()
        ledger.record(f"warm-up op {i}", workload.check(warm))

    memories = []
    for i, (memory, problems) in enumerate(workload.untimed_ops(measure_memory)):
        ledger.record(f"untimed op {i}", problems)
        if memory is not None:
            memories.append(memory)
    ledger.record("memory counts repeat", _repeat_problems(memories))

    per_round = workload.ops_per_round
    round_ms, traced_round_ms, op_units, verdicts = [], [], [], []
    images, op_seconds, rnd = 0, 0.0, 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.unit = f"round{rnd}"
            op_units.append(tracer.unit)
            tracer.install()
        results, elapsed = [], 0.0
        try:
            for _ in range(per_round):
                t0 = time.perf_counter()
                results.append(workload.op())
                elapsed += time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        for result in results:
            ledger.record(f"round {rnd}", workload.check(result))
            verdict = getattr(result, "verdict", None)
            if verdict is not None:
                verdicts.append(verdict.passed)
        if traced:
            traced_round_ms.append(elapsed * 1e3 / per_round)
        else:
            round_ms.append(elapsed * 1e3 / per_round)
            op_seconds += elapsed
            images += per_round * workload.images_per_op()
        rnd += 1
        if time.perf_counter() - start >= seconds and rnd >= (2 if tracer else 1):
            break

    tail_ms, tail_pct, beyond = tail(round_ms)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": statistics.median(round_ms),
        "op_ms_tail": tail_ms,
        "images_per_s": images / op_seconds,
        "peak_mem_mib": max(m.peak_bytes for m in memories) / MIB,
    }
    units = dict(END_TO_END)
    details = {"rounds": len(round_ms), "ops_per_round": per_round,
               "op_ms_tail_percentile": tail_pct,
               "op_ms_tail_samples_beyond": beyond,
               "setup_s_samples": setup_s, "op_ms_samples": round_ms,
               "memory": [vars(m) for m in memories]}
    spans = None
    if tracer:
        totals = unit_totals(tracer)
        metrics.update(layer_metrics(totals, setup_units, op_units, per_round))
        for name in ("autodiff.tape_nodes", "autodiff.vjp_nodes_visited"):
            counts = [totals[u].get(name, 0.0) for u in op_units]
            ledger.record(f"{name} repeats", [] if len(set(counts)) <= 1 else
                          [f"differs between traced rounds: {counts}"])
        untraced = statistics.median(round_ms)
        traced = statistics.median(traced_round_ms)
        metrics.update({
            "autodiff.tape_mib": max(m.tape_bytes for m in memories) / MIB,
            "equivalence.lib_passed_fraction":
                sum(verdicts) / len(verdicts) if verdicts else 0.0,
            "trace.untraced_op_ms": untraced,
            "trace.traced_op_ms": traced,
            "trace.overhead_ratio": traced / untraced,
        })
        units.update(LAYER_METRICS)
        details["traced_op_ms_samples"] = traced_round_ms
        spans = tracer.spans
    details["fail_fraction"] = ledger.failed / ledger.attempted
    return {"metrics": metrics, "units": units, "details": details,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "problems": ledger.problems, "spans": spans}

