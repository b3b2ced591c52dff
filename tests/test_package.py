from __future__ import annotations

import os
import subprocess
import sys

import msga


def test_every_exported_name_resolves() -> None:
    missing = [name for name in msga.__all__ if not hasattr(msga, name)]
    assert missing == []


def test_package_imports_no_scipy() -> None:
    code = ("import sys, msga, msga.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(msga.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
