"""CLI behavior: JSON schema, exit codes, selection, suppression."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DIRTY = """\
import random


def pick(env, items):
    yield "oops"
    return random.choice(items)
"""

CLEAN = """\
def proc(env, dt):
    yield dt
"""


def run_lint(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=tmp_path,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )


def write_module(tmp_path: Path, source: str) -> Path:
    mod = tmp_path / "repro" / "cluster" / "fixture.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(source, encoding="utf-8")
    return mod


def test_json_output_schema_and_exit_code(tmp_path):
    write_module(tmp_path, DIRTY)
    proc = run_lint(tmp_path, "repro", "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == 1
    assert payload["tool"] == "repro.lint"
    assert payload["summary"]["findings"] == len(payload["findings"]) > 0
    rules = {f["rule"] for f in payload["findings"]}
    assert {"SIM002", "SIM003"} <= rules
    assert payload["summary"]["by_rule"]["SIM002"] >= 1
    for f in payload["findings"]:
        assert {"rule", "path", "line", "col", "message"} <= set(f)


def test_clean_tree_exits_zero(tmp_path):
    write_module(tmp_path, CLEAN)
    proc = run_lint(tmp_path, "repro")
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_select_narrows_to_one_family(tmp_path):
    write_module(tmp_path, DIRTY)
    proc = run_lint(tmp_path, "repro", "--format", "json", "--select", "SIM002")
    payload = json.loads(proc.stdout)
    assert {f["rule"] for f in payload["findings"]} == {"SIM002"}


def test_line_scoped_suppression_comment(tmp_path):
    write_module(
        tmp_path,
        "import random  # lint: ignore[SIM002]\n",
    )
    proc = run_lint(tmp_path, "repro")
    assert proc.returncode == 0


def test_list_rules_names_every_family(tmp_path):
    proc = run_lint(tmp_path, "--list-rules")
    assert proc.returncode == 0
    for family in ("SIM001", "LOCK", "OBS001", "ARCH001", "FF001", "LINT001"):
        assert family in proc.stdout
