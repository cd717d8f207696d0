"""The package namespace: importing hrdiag loads no module until a name is used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrdiag

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_package_loads_neither_numpy_nor_a_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hrdiag; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('hrdiag', 'numpy')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "['hrdiag']\n"


def test_every_public_name_resolves_once():
    assert len(set(hrdiag.__all__)) == len(hrdiag.__all__)
    namespace = {}
    exec("from hrdiag import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(hrdiag.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hrdiag.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        from hrdiag import no_such_name  # noqa: F401
