"""Checks on the repository itself: the CI workflow runs the tier-1
command that ROADMAP.md states and fails a piped benchmark run, the
library keeps no dead import, every callable the traced benchmark
wraps exists, a traced trace, analysis or train step gives the untraced
one's result, only ``network`` runs a block's branch, every tape the
library records is declared, and every field of a library dataclass is
read somewhere."""

import ast
import importlib
import importlib.util
import re
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

from linearskip import autodiff, propagation
from linearskip.network import NetworkSpec, build_network

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    stated = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap,
                        flags=re.MULTILINE)
    assert len(stated) == 1
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"- name: Tier-1 tests\n\s+run: (.+)$", workflow,
                     flags=re.MULTILINE)
    assert step is not None
    assert step.group(1).strip() == stated[0]


def _tracing() -> types.ModuleType:
    """``benchmark/tracing.py``, loaded as it is."""
    spec = importlib.util.spec_from_file_location(
        "_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _tracer_targets() -> list:
    """``benchmark/tracing.py``'s ``_targets()``: (owner, attribute, span
    name) for every callable the traced benchmark wraps."""
    return _tracing()._targets()


def _tracer_lookups() -> dict:
    """Module name -> the attributes that the tracer looks up on that
    module."""
    out = defaultdict(set)
    for owner, attr, _ in _tracer_targets():
        if isinstance(owner, types.ModuleType):
            out[owner.__name__].add(attr)
    return out


def test_every_tracer_target_resolves():
    # the traced benchmark pins each attribute with a plain getattr, so one
    # that the library drops fails every traced run with AttributeError
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in _tracer_targets()
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_traced_flow_report_is_the_untraced_one():
    # the tracer wraps ``vjp`` as traced(graph, *args, **kwargs), so the
    # backward expansion's callable seeds reach the walk unchanged and are
    # called inside it, and the report keeps its bits
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8))
    trace = propagation.capture_trace(build_network(spec, seed=1), x,
                                      stage=1, m=1, n=3)
    untraced = propagation.flow_report(trace)
    tracer = _tracing().Tracer(input_size=8)
    tracer.install()
    try:
        traced = propagation.flow_report(trace)
    finally:
        tracer.uninstall()
    assert traced == untraced
    walks = {i for i, span in enumerate(tracer.spans)
             if span[1] == "autodiff.vjp"}
    seeds = [span for span in tracer.spans
             if span[1] == "transforms.apply_transform" and span[5] in walks]
    assert len(walks) == 1 and len(seeds) == 2


def test_traced_trace_is_the_untraced_one():
    # the trace's blocks run through BuildingBlock.forward, which the
    # tracer wraps: a traced capture keeps its bits, and each block run,
    # taped or not, is one ``network.block`` span of its stage
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=1)
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8))
    for stage, m, n in ((1, 1, 3), (2, 2, 3)):
        untraced = propagation.capture_trace(net, x, stage, m, n)
        tracer = _tracing().Tracer(input_size=8)
        tracer.install()
        try:
            traced = propagation.capture_trace(net, x, stage, m, n)
        finally:
            tracer.uninstall()
        for name in ("inputs", "branch_outputs", "gradients"):
            for a, b in zip(getattr(traced, name), getattr(untraced, name),
                            strict=True):
                assert np.array_equal(a, b)
        blocks = [span[2] for span in tracer.spans
                  if span[1] == "network.block"]
        # blocks 1..m-1 untaped and m..n-1 taped, after all earlier stages
        assert blocks == ["s1"] * 3 * (stage - 1) + [f"s{stage}"] * (n - 1)


def test_only_the_network_runs_block_branches():
    # ``Network.forward`` is the one runner: no other library module calls
    # a block's ``branch_output``, so no second block loop can come back
    callers = []
    for path in sorted((ROOT / "src" / "linearskip").glob("*.py")):
        if path.stem == "network":
            continue
        tree = ast.parse(path.read_text())
        callers += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "branch_output"]
    assert not callers


def test_every_library_tape_is_declared():
    # each tape the library records names the tensors its walks ask for
    # (``Graph(wrt=...)``), so its pullbacks keep nothing for any other
    # gradient; an undeclared ``Graph()`` cannot come back
    undeclared = []
    for path in sorted((ROOT / "src" / "linearskip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if (isinstance(node, ast.Call) and name == "Graph"
                    and "wrt" not in {kw.arg for kw in node.keywords}):
                undeclared.append(f"{path.stem}:{node.lineno}")
    assert not undeclared


def test_traced_train_step_gradients_are_the_untraced_ones():
    # the tracer wraps each node's vjp_fn when its ``vjp`` wrapper is
    # entered, so backward must hand it the whole tape before taking it:
    # every recorded node is counted once and every walked node timed
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=1)
    x = autodiff.Tensor(np.random.default_rng(2).standard_normal((2, 3, 8, 8)))
    labels = np.array([1, 7])

    def step():
        with autodiff.Graph() as graph:
            loss = autodiff.softmax_cross_entropy(net.forward(x, mode="train"),
                                                  labels)
        ops = [node.op for node in graph.nodes]
        return ops, autodiff.backward(graph, loss)

    ops, untraced = step()
    tracer = _tracing().Tracer(input_size=8)
    tracer.install()
    try:
        traced_ops, traced = step()
    finally:
        tracer.uninstall()
    assert traced_ops == ops
    assert traced.keys() == untraced.keys()
    for t, g in untraced.items():
        assert np.array_equal(traced[t].data, g.data)
    assert dict(tracer.tape_nodes) == {None: len(ops)}
    walked = [span[1] for span in tracer.spans if span[1].endswith(".bwd")]
    assert walked == [f"autodiff.{op}.bwd" for op in reversed(ops)]


def test_every_library_import_is_used():
    # an import stays only if its module uses it, exports it, or the
    # benchmark's tracer wraps it there
    pinned = _tracer_lookups()
    unused = {}
    for path in sorted((ROOT / "src" / "linearskip").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        name = f"linearskip.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        dead = imported - used - exported - pinned[name]
        if dead:
            unused[name] = sorted(dead)
    assert not unused


def test_piped_benchmark_steps_fail_with_their_run():
    # a run step's default shell has no pipefail, so a failed run piped
    # into the job summary would pass its step; `shell: bash` runs with
    # -eo pipefail
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.split(r"^      - ", workflow.partition("\n    steps:\n")[2],
                     flags=re.MULTILINE)[1:]
    piped = [step for step in steps
             if re.search(r"benchmark/run\.py[^\n]*\|", step)]
    assert piped
    for step in piped:
        assert re.search(r"^        shell: bash$", step, flags=re.MULTILINE), step
        for line in step.splitlines():
            if "benchmark/run.py" in line:
                assert line.rstrip().endswith('>> "$GITHUB_STEP_SUMMARY"'), line


def test_every_result_field_is_read():
    # a dataclass field that nothing reads is state kept for no one: each
    # annotated field of a library dataclass is loaded as an attribute
    # somewhere in the library, the benchmark or the tests
    fields, loaded = [], set()
    for path in sorted((ROOT / "src" / "linearskip").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                fields += [(f"{path.stem}.{cls.name}", node.target.id)
                           for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
    for folder in ("src", "benchmark", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            loaded |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load)}
    assert fields
    unread = [f"{owner}.{name}" for owner, name in fields if name not in loaded]
    assert not unread
