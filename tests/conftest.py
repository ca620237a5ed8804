"""Shared set-up: child Pythons import the package from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path; a
subprocess needs it on ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
