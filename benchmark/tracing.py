"""Spans around the calls into each ``linearskip`` module, for the traced run.

The tracer replaces module attributes as their callers see them: the names
that ``network``, ``transforms``, ``propagation`` and ``equivalence``
imported from other modules, and the module functions the benchmark itself
calls. Before each tape walk (``vjp``) it also wraps every recorded
``Node.vjp_fn``. Spans stay in memory as ``[unit, name, stage, start, end,
parent]`` lists; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from linearskip import (autodiff, equivalence, network, optim, propagation,
                        transforms)

_STAGED_OPS = ("conv2d", "batch_norm", "channel_mix")
_TOTAL_OPS = ("relu", "add", "global_avg_pool", "dense", "softmax_cross_entropy")
_STAGES = ("s1", "s2", "s3")
_MAKERS = ("make_identity", "make_idempotent_mr", "make_idempotent_cmr",
           "make_orthogonal_tp", "make_orthogonal_random", "make_periodic")

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    [("autodiff.forward_ms", "ms"), ("autodiff.backward_ms", "ms")]
    + [(f"autodiff.{op}.{s}.{d}_ms", "ms")
       for op in _STAGED_OPS for s in _STAGES for d in ("fwd", "bwd")]
    + [(f"autodiff.{op}.{d}_ms", "ms") for op in _TOTAL_OPS for d in ("fwd", "bwd")]
    + [("autodiff.tape_mib", "MiB"), ("autodiff.tape_nodes", "count"),
       ("autodiff.vjp_nodes_visited", "count"),
       ("network.build_ms", "ms")]
    + [(f"network.stage{i}.fwd_ms", "ms") for i in (1, 2, 3)]
    + [("transforms.make_ms", "ms"), ("transforms.matrix_power_calls", "count"),
       ("transforms.matrix_power_ms", "ms"),
       ("transforms.apply_transform_ms", "ms"),
       ("propagation.capture_trace_ms", "ms"),
       ("propagation.forward_expansion_ms", "ms"),
       ("propagation.backward_expansion_ms", "ms"),
       ("propagation.flow_report_self_ms", "ms"),
       ("equivalence.convert_ms", "ms"), ("equivalence.verify_ms", "ms"),
       ("equivalence.input_grad_ms", "ms"),
       ("equivalence.lib_passed_fraction", "fraction"),
       ("optim.sgd_step_ms", "ms"),
       ("trace.untraced_op_ms", "ms"), ("trace.traced_op_ms", "ms"),
       ("trace.overhead_ratio", "ratio")])


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    out = []
    for op in ("conv2d", "batch_norm", "relu", "add", "channel_mix",
               "global_avg_pool", "dense"):
        out.append((network, op, f"autodiff.{op}"))
    out += [(transforms, "channel_mix", "autodiff.channel_mix"),
            (propagation, "add", "autodiff.add"),
            (propagation, "reduce_sum", "autodiff.reduce_sum"),
            (equivalence, "reduce_sum", "autodiff.reduce_sum"),
            (autodiff, "softmax_cross_entropy", "autodiff.softmax_cross_entropy"),
            (autodiff, "vjp", "autodiff.vjp"),
            (propagation, "vjp", "autodiff.vjp"),
            (network, "build_network", "network.build"),
            (network.BuildingBlock, "forward", "network.block"),
            (propagation, "matrix_power", "transforms.matrix_power"),
            (equivalence, "matrix_power", "transforms.matrix_power"),
            (propagation, "apply_transform", "transforms.apply_transform"),
            (propagation, "capture_trace", "propagation.capture_trace"),
            (propagation, "verify_forward_expansion",
             "propagation.forward_expansion"),
            (propagation, "verify_backward_expansion",
             "propagation.backward_expansion"),
            (propagation, "flow_report", "propagation.flow_report"),
            (equivalence, "convert_orthogonal_to_identity", "equivalence.convert"),
            (equivalence, "convert_idempotent_to_diagonal", "equivalence.convert"),
            (equivalence, "verify_equivalence", "equivalence.verify"),
            (equivalence, "input_gradient_deviation", "equivalence.input_grad"),
            (optim, "sgd_nesterov_step", "optim.sgd_step")]
    out += [(transforms, maker, "transforms.make") for maker in _MAKERS]
    return out


class Tracer:
    """Records spans while installed; ``unit`` tags the spans of one
    setup or one round of ops."""

    def __init__(self, input_size: int):
        # stage of a tensor by its spatial size: the stem and transitions
        # produce the size of the stage they feed
        self._stage_of = {input_size: "s1", input_size // 2: "s2",
                          input_size // 4: "s3"}
        self.spans: list = []
        self.tape_nodes: dict = defaultdict(int)
        self.unit = None
        self._open: list = []
        self._saved: list = []

    def _stage(self, shape) -> str:
        return self._stage_of.get(shape[2], "") if len(shape) == 4 else ""

    def _call(self, name: str, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        span = [self.unit, name, "", time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._open.pop()
        if isinstance(out, autodiff.Tensor):
            span[2] = self._stage(out.data.shape)
        elif name == "network.block":
            span[2] = self._stage(args[1].data.shape)
        return out

    def _wrap(self, name: str, fn):
        if name == "autodiff.vjp":
            def traced(graph, *args, **kwargs):
                self._wrap_tape(graph)
                return self._call(name, fn, (graph,) + args, kwargs)
        else:
            def traced(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_tape(self, graph) -> None:
        """Time every node's VJP; count each tape's nodes once per unit."""
        if graph.nodes and getattr(graph.nodes[0].vjp_fn, "traced", False):
            return
        self.tape_nodes[self.unit] += len(graph.nodes)
        for node in graph.nodes:
            node.vjp_fn = self._node_vjp(node)

    def _node_vjp(self, node):
        name = f"autodiff.{node.op}.bwd"
        inner = node.vjp_fn
        stage = self._stage(node.output.data.shape)

        def traced(g):
            parent = self._open[-1] if self._open else -1
            span = [self.unit, name, stage, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            try:
                return inner(g)
            finally:
                span[4] = time.perf_counter()
        traced.traced = True
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def unit_totals(tracer: Tracer) -> dict:
    """Per unit: summed milliseconds and counts under metric names."""
    spans = tracer.spans
    totals: dict = defaultdict(lambda: defaultdict(float))
    child_ms: dict = defaultdict(float)
    for span in spans:
        if span[5] >= 0:
            child_ms[span[5]] += (span[4] - span[3]) * 1e3
    for index, (unit, name, stage, start, end, _) in enumerate(spans):
        t, ms = totals[unit], (end - start) * 1e3
        module, _, what = name.partition(".")
        if module == "autodiff":
            op, _, direction = what.partition(".")
            direction = direction or "fwd"
            if op == "vjp":
                t["autodiff.backward_ms"] += ms
                continue
            if direction == "bwd":
                t["autodiff.vjp_nodes_visited"] += 1
            else:
                t["autodiff.forward_ms"] += ms
            key = f"autodiff.{op}.{stage}" if op in _STAGED_OPS else f"autodiff.{op}"
            t[f"{key}.{direction}_ms"] += ms
        elif name == "network.block":
            t[f"network.stage{stage[1:]}.fwd_ms"] += ms
        elif name == "propagation.flow_report":
            t["propagation.flow_report_self_ms"] += ms - child_ms[index]
        else:
            t[f"{name}_ms"] += ms
            if name == "transforms.matrix_power":
                t["transforms.matrix_power_calls"] += 1
    for unit, count in tracer.tape_nodes.items():
        totals[unit]["autodiff.tape_nodes"] = count
    return totals


def layer_metrics(totals: dict, setup_units, op_units,
                  ops_per_round: int) -> dict:
    """Median over units of each span-derived per-layer total, per op.

    Set-up metrics (``network.build_ms``, ``transforms.make_ms``) come from
    the set-up units, the rest from the traced rounds of ops; a metric for
    a layer the workload never calls is 0.
    """
    out = {}
    for name, _ in LAYER_METRICS:
        if name in ("network.build_ms", "transforms.make_ms"):
            units, per = setup_units, 1
        else:
            units, per = op_units, ops_per_round
        out[name] = statistics.median(totals[u].get(name, 0.0) / per
                                      for u in units)
    return out
