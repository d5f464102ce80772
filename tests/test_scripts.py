"""Smoke runs of the experiment scripts under ``scripts/``."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from conftest import WORKED12
from robinspace import dendrogram as dg, generator
from robinspace.core import Leaf

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_profile_survey_smoke(capsys):
    survey = runpy.run_path(str(SCRIPTS / "profile_survey.py"))
    assert survey["dendro_height"](Leaf(3)) == 0
    assert survey["dendro_height"](dg.build_dendrogram(WORKED12, range(12))) == 4
    survey["main"](["-n", "8", "--batch", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=8 batch=2 seed=0"
    assert [line.split()[0] for line in lines[2:]] == list(generator.PROFILES)


SMALL_TESTS = """
import pytest

def test_passes():
    pass

def test_fails():
    assert False

@pytest.mark.skip
def test_skipped():
    pass
"""


def test_tier1_interpreters_builds_its_path_and_reports_each_version(tmp_path, capsys):
    script = runpy.run_path(str(SCRIPTS / "tier1_interpreters.py"))
    # the test packages are copied from where this interpreter finds pytest
    site = Path(pytest.__file__).resolve().parent.parent
    dest = tmp_path / "packages"
    dest.mkdir()
    copied = script["build_test_path"](site, dest)
    assert {"pytest", "_pytest", "pluggy", "hypothesis", "_hypothesis_pytestplugin.py"} <= set(copied)
    assert sorted(path.name for path in dest.iterdir()) == sorted(copied)
    assert not any(dest.rglob("__pycache__"))
    # a pyenv root holding this interpreter as 3.11.0; 2.7 and a version
    # without an interpreter are not run
    root = tmp_path / "pyenv"
    for version in ("3.11.0", "2.7.18"):
        (root / "versions" / version / "bin").mkdir(parents=True)
        (root / "versions" / version / "bin" / "python").symlink_to(sys.executable)
    (root / "versions" / "3.12.0").mkdir()
    small = tmp_path / "test_small.py"
    small.write_text(SMALL_TESTS)
    assert script["main"]([str(small), "--pyenv-root", str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == ["3.11.0: 1 passed, 1 failed, 1 skipped"]
    assert script["summary"]("", 4) == "no test summary (exit 4)"
    assert script["summary"]("x\n2 failed, 1 error in 1s", 1) == "0 passed, 2 failed, 0 skipped, 1 errors"
