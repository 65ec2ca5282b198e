"""The CI workflow, read as text (the test extras do not install a YAML parser)."""

from __future__ import annotations

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_step_names_keep_their_hashes():
    # in a plain (unquoted) YAML scalar " #" starts a comment, so a name such
    # as `sigma_F6 # zeta'` would be cut where the sum is named
    names = re.findall(r"^\s*(?:- )?name: (.*)$", WORKFLOW.read_text(encoding="utf-8"), re.M)
    assert len(names) > 20
    cut = [name for name in names if " #" in name and name[0] not in "\"'"]
    assert cut == []
