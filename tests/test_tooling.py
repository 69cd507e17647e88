"""The CI workflow runs the tier-1 command that ROADMAP.md states."""

import re
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
