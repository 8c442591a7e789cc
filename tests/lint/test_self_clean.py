"""The analyzer's own verdict on this repository: clean.

Any finding fails, so a regression in src/ (a stranded lock, an upward
import, a wall-clock read in simulation code) fails this test the same
way it fails the CI lint job.
"""

from __future__ import annotations


def test_src_lints_clean(src_findings):
    findings = list(src_findings)
    assert findings == [], "\n".join(f.render() for f in findings)
