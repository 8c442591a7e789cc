"""Shared fixtures for the analyzer's own-repository checks."""

from __future__ import annotations

import pytest

from repro.lint import lint_paths
from tests.lint.util import REPO_SRC


@pytest.fixture(scope="session")
def src_findings():
    """Every finding of one full ``lint_paths`` run over ``src/``.

    The whole-tree analysis takes seconds; the checks that read it
    share one run instead of repeating it.
    """
    return tuple(lint_paths([str(REPO_SRC)]))
