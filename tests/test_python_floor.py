"""The declared Python floor is the lowest version CI's tier-1 matrix tests."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def test_requires_python_matches_lowest_tier1_version():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python\s*=\s*">=\s*([0-9.]+)"', pyproject, re.M)
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tier1 = workflow[workflow.index("\n  tier1:"):]
    next_job = re.search(r"\n  [A-Za-z0-9_-]+:\n", tier1[1:])
    if next_job is not None:
        tier1 = tier1[: next_job.start() + 1]
    (matrix,) = re.findall(r"python-version:\s*\[([^\]]*)\]", tier1)
    versions = [_version(v) for v in re.findall(r"[0-9]+(?:\.[0-9]+)+", matrix)]
    assert _version(floor) == min(versions)
