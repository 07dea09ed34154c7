"""The CI workflow runs the tier-1 command that ROADMAP.md names, under a
time limit."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_tier1_workflow_runs_the_roadmap_command_with_a_timeout():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M).group(1)
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    jobs = workflow["jobs"]
    assert list(jobs) == ["tests"]
    job = jobs["tests"]
    assert isinstance(job["timeout-minutes"], int) and 0 < job["timeout-minutes"] < 360
    runs = [step["run"] for step in job["steps"] if step.get("name") == "Tier-1 tests"]
    assert runs == [command]
