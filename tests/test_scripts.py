"""Smoke runs of the experiment scripts under ``scripts/``."""

from __future__ import annotations

import runpy
from pathlib import Path

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
