"""The benchmark's own tests, at a tiny size (K = 1, batch 2).

Run from the root of the repository::

    python3 -m pytest -q benchmark
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from linearskip import equivalence, propagation  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _run_cli(workload: str, trace: int) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace), "--size", "tiny"])
    return code, out.getvalue().strip().splitlines()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.workloads())
    assert list(wl.workloads("tiny")) == list(wl.workloads())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_emits_every_metric(workload, trace):
    code, lines = _run_cli(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    printed = "\n".join(lines)
    assert "fail_fraction = 0 " in printed


# ---------------------------------------------------------------------------
# each check rejects a perturbed output

@pytest.fixture(scope="module")
def train():
    w = wl.workloads("tiny")["train_r20_dense_f32"]
    w.setup(0)
    return w


def test_train_check_rejects_non_finite_loss_and_parameters(train):
    loss = train.op()
    assert train.check(loss) == []
    assert train.check(float("nan")) != []
    param = train.params[0]
    saved = param.data.copy()
    param.data.flat[0] = np.inf
    try:
        assert train.check(loss) != []
    finally:
        param.data = saved


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reference_check_rejects_a_perturbed_loss(dtype):
    reference = 2.5
    eps = np.finfo(dtype).eps
    assert wl.check_reference_loss(reference * (1 + 8 * eps), reference, dtype) == []
    perturbed = reference * (1 + 2 * wl.REFERENCE_TOL_EPS * eps)
    assert wl.check_reference_loss(perturbed, reference, dtype) != []
    assert wl.check_reference_loss(float("nan"), reference, dtype) != []


@pytest.fixture(scope="module")
def analysis():
    w = wl.workloads("tiny")["analyze_r56_f64"]
    w.setup(0)
    return w


def _trace(analysis, index: int):
    net = analysis.built[index]
    images, _ = analysis.batches[0]
    return propagation.capture_trace(net, images, 1, 1,
                                     net.spec.blocks_per_stage)


def test_analysis_checks_pass_on_both_nets(analysis):
    for _ in range(2):
        assert analysis.check(analysis.op()) == []


def test_stage_check_rejects_a_perturbed_forward_expansion(analysis):
    trace = _trace(analysis, 0)
    assert wl.check_stage(wl.analyse_stage(trace, False), np.float64) == []
    trace.inputs[-1].flat[0] *= 1 + 1e-9          # x_n off by a relative 1e-9
    problems = wl.check_stage(wl.analyse_stage(trace, False), np.float64)
    assert any("forward expansion" in p for p in problems)


def test_stage_check_rejects_a_perturbed_backward_expansion(analysis):
    trace = _trace(analysis, 0)
    trace.gradients[0].flat[0] += 1e-9 * np.abs(trace.gradients[0]).max()
    problems = wl.check_stage(wl.analyse_stage(trace, False), np.float64)
    assert any("backward expansion" in p for p in problems)


def test_stage_check_rejects_bad_null_space_fractions(analysis):
    stage = wl.analyse_stage(_trace(analysis, 1), True)
    assert wl.check_stage(stage, np.float64) == []
    column, null = stage.fractions_m
    for fractions, what in (((column + 1e-9, null), "sum to"),
                            ((1.5, -0.5), "leave [0, 1]")):
        stage.fractions_m = fractions
        problems = wl.check_stage(stage, np.float64)
        assert any(what in p for p in problems), problems
    stage.fractions_m = (column, null)
    stage.report.null_fraction_x_n += 1e-9
    assert any("flow report" in p for p in wl.check_stage(stage, np.float64))


def test_equivalence_check_rejects_a_perturbed_rewrite(analysis):
    net = analysis.built[1]
    converted = equivalence.convert_idempotent_to_diagonal(net)
    logit_scale, grad_scale = analysis._output_scales(1)

    def problems():
        return wl.check_equivalence(
            equivalence.verify_equivalence(net, converted, num_inputs=2,
                                           seed=analysis.probe_seed).max_deviation,
            logit_scale,
            equivalence.input_gradient_deviation(net, converted, num_inputs=2,
                                                 seed=analysis.probe_seed),
            grad_scale, np.float64)

    assert problems() == []
    converted.head_bias.data = converted.head_bias.data + 1e-9 * logit_scale
    assert [p for p in problems() if "logits" in p]
    converted.stem.data = converted.stem.data * (1 + 1e-9)
    assert [p for p in problems() if "input gradients" in p]


def test_memory_repeat_check_rejects_a_perturbed_count():
    same = harness.Memory(peak_bytes=10 ** 8, tape_bytes=10 ** 7)
    drift = harness.Memory(peak_bytes=10 ** 8 - 8, tape_bytes=10 ** 7 - 8)
    grown = harness.Memory(peak_bytes=10 ** 8 + 2 * harness.MEMORY_REPEAT_BYTES,
                           tape_bytes=10 ** 7)
    assert harness._repeat_problems([same, drift]) == []
    assert harness._repeat_problems([same, grown]) != []
