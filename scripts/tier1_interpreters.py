#!/usr/bin/env python3
"""Run the tier-1 suite on every pyenv interpreter 3.10-3.13 present.

The pure-Python test packages (pytest, hypothesis and what they import)
are copied from the running interpreter's ``site-packages`` (wherever it
finds pytest) into a temporary directory, so nothing is downloaded or
installed.  Each interpreter then runs, from the checkout and with
plugin autoloading off,

    PYTHONPATH=src:<dir> <python> -m pytest -q -p _hypothesis_pytestplugin

and the script prints one line per version: its passed, failed and
skipped counts, or why the version was skipped (an interpreter that
cannot import pytest from the copies, such as 3.10 without
``exceptiongroup``).

    python scripts/tier1_interpreters.py              # the whole suite
    python scripts/tier1_interpreters.py tests/test_core.py
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# packages and modules copied from site-packages, beside the
# ``_hypothesis_*.py`` modules; none holds compiled code
TEST_PACKAGES = (
    "pytest", "_pytest", "pluggy", "iniconfig", "packaging", "hypothesis",
    "sortedcontainers", "attr", "attrs", "pygments", "py.py",
)
VERSIONS = re.compile(r"3\.1[0-3]\.\d+")
COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?)\b")


def build_test_path(site: Path, dest: Path) -> list[str]:
    """Copy the test packages found in ``site`` into ``dest``; their names."""
    copied = []
    for path in sorted(site.glob("_hypothesis_*.py")) + [site / name for name in TEST_PACKAGES]:
        if path.is_dir():
            shutil.copytree(path, dest / path.name, ignore=shutil.ignore_patterns("__pycache__"))
        elif path.is_file():
            shutil.copy2(path, dest / path.name)
        else:
            continue
        copied.append(path.name)
    return copied


def interpreters(pyenv_root: Path) -> dict[str, Path]:
    """version -> python executable, for each pyenv version 3.10-3.13."""
    found = {}
    for version in sorted((pyenv_root / "versions").glob("3.*")):
        python = version / "bin" / "python"
        if VERSIONS.fullmatch(version.name) and python.is_file():
            found[version.name] = python
    return found


def summary(output: str, returncode: int) -> str:
    """The counts of pytest's last summary line, as one report line."""
    lines = [line for line in output.splitlines() if COUNT.search(line)]
    if not lines:
        return f"no test summary (exit {returncode})"
    counts = {"passed": 0, "failed": 0, "skipped": 0}  # and "errors", when there are any
    for n, what in COUNT.findall(lines[-1]):
        counts["errors" if what.startswith("error") else what] = int(n)
    return ", ".join(f"{n} {what}" for what, n in counts.items())


def run(python: Path, test_path: Path, tests: list[str]) -> str:
    """The report line of one interpreter."""
    # plugins come from ``-p`` alone, so an interpreter that has hypothesis
    # installed does not register its plugin twice
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(test_path)]),
        PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",
    )
    probe = subprocess.run(
        [str(python), "-c", "import pytest, hypothesis"], env=env, capture_output=True, text=True
    )
    if probe.returncode:
        reason = (probe.stderr.strip().splitlines() or [f"exit {probe.returncode}"])[-1]
        return f"skipped ({reason})"
    cmd = [str(python), "-m", "pytest", "-q", "-p", "_hypothesis_pytestplugin",
           "-p", "no:cacheprovider", "--continue-on-collection-errors", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return summary(done.stdout, done.returncode)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="*", help="test files or node ids (default: the suite)")
    parser.add_argument(
        "--pyenv-root", type=Path,
        default=Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")),
    )
    args = parser.parse_args(argv)
    spec = importlib.util.find_spec("pytest")
    if spec is None:
        print("pytest is not installed for this interpreter", file=sys.stderr)
        return 2
    site = Path(spec.origin).parent.parent
    found = interpreters(args.pyenv_root)
    if not found:
        print(f"no pyenv interpreter 3.10-3.13 under {args.pyenv_root}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copied = build_test_path(site, Path(tmp))
        if "hypothesis" not in copied:
            print(f"hypothesis is not beside pytest in {site}", file=sys.stderr)
            return 2
        for version, python in found.items():
            print(f"{version}: {run(python, Path(tmp), args.tests)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
