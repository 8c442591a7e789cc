"""The analyzer's own verdict on this repository: clean.

The committed baseline is empty, so every rule is live — a regression
in src/ (a stranded lock, an unclosed span, an upward import) fails
this test the same way it fails the CI lint job.
"""

from __future__ import annotations

from tests.lint.util import REPO_SRC

BASELINE = REPO_SRC.parent / "lint-baseline.json"


def test_src_lints_clean(src_findings):
    findings = list(src_findings)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_committed_baseline_is_empty():
    import json

    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert data["version"] == 1
    assert data["fingerprints"] == []
