"""scripts/parity.py picks its base tree without running the call list."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
parity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(parity)


@pytest.fixture
def spied(monkeypatch):
    """Record which trees get records and which commands run; run nothing."""
    seen = {"trees": [], "commands": []}

    def records(tree, scratch, name):
        seen["trees"].append((name, tree))
        return []

    def run(cmd, **kwargs):
        seen["commands"].append(cmd)
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(parity, "_records", records)
    monkeypatch.setattr(parity.subprocess, "run", run)
    return seen


def test_a_directory_is_run_as_it_is(tmp_path, spied, capsys):
    base = tmp_path / "copy"
    (base / "src" / "chaosmark").mkdir(parents=True)
    assert parity.main([str(base), "--scratch", str(tmp_path / "scratch")]) == 0
    assert spied["trees"] == [("base", base.resolve()), ("head", parity.ROOT)]
    assert spied["commands"] == []
    assert capsys.readouterr().out.endswith(f"against {base}: 0 records differ\n")


def test_a_revision_gets_a_worktree(tmp_path, spied, monkeypatch):
    scratch = tmp_path / "scratch"
    # a directory without src/chaosmark is not a tree, so HEAD names a revision
    monkeypatch.chdir(tmp_path)
    (tmp_path / "HEAD").mkdir()
    assert parity.main(["HEAD", "--scratch", str(scratch)]) == 0
    worktree = scratch.resolve() / "base"
    assert spied["trees"] == [("base", worktree), ("head", parity.ROOT)]
    assert [cmd[:3] for cmd in spied["commands"]] == [
        ["git", "worktree", "add"], ["git", "worktree", "remove"]]
    assert spied["commands"][0][-2:] == [str(worktree), "HEAD"]
