import os
import subprocess
import sys


def test_import_loads_no_scipy():
    # the package is numpy-only: scipy.linalg alone would add tens of MB of
    # resident memory and a third of a second of import time to every run
    code = ("import irsuplink, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
