"""Checks on the repository itself: the CI workflow runs the tier-1
command that ROADMAP.md states and fails a piped benchmark run, and the
library keeps no dead import."""

import ast
import importlib
import importlib.util
import re
import types
from collections import defaultdict
from pathlib import Path

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


def _tracer_lookups() -> dict:
    """Module name -> the attributes that ``benchmark/tracing.py``'s
    ``_targets()`` looks up on that module."""
    spec = importlib.util.spec_from_file_location(
        "_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = defaultdict(set)
    for owner, attr, _ in tracing._targets():
        if isinstance(owner, types.ModuleType):
            out[owner.__name__].add(attr)
    return out


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
