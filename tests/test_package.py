import re
import subprocess
import sys
from pathlib import Path

import pytest

import cluttertrack

PACKAGE = Path(cluttertrack.__file__).resolve().parent
SUBMODULES = ["_lap", "assoc", "bench", "cli", "deepda", "domain", "kalman", "metrics", "scenario"]


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this checkout's package."""
    prelude = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
    result = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_submodule_is_listed():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == SUBMODULES


# The package root imports no submodule, so only a fresh interpreter per
# module shows an import cycle between them.
@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_on_its_own(name):
    _fresh_interpreter(f"import cluttertrack.{name}")


def test_package_root_holds_only_the_version():
    code = "import cluttertrack; print(sorted(n for n in vars(cluttertrack) if not n.startswith('__')))"
    assert _fresh_interpreter(code).strip() == "[]"


def test_version_matches_pyproject():
    # Reports echo the version, so it must be the one the package is built with.
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert cluttertrack.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M).group(1)
