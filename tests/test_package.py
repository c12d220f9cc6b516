"""The package module itself: ``import wkyber`` runs only ``__init__``."""

import os
import subprocess
import sys

import wkyber


def test_import_loads_no_submodule_and_no_numpy():
    # every verb and library user imports a submodule explicitly; the bare
    # package import stays free of numpy and of every wkyber submodule
    src = os.path.dirname(os.path.dirname(wkyber.__file__))
    code = ("import sys, wkyber; print(*sorted(m for m in sys.modules "
            "if m.startswith('wkyber.') or m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert proc.stdout.split() == []


def test_session_stack_loads_no_law():
    # the wire and the sessions need no probability law: importing the
    # protocol loads the session stack and nothing of reliability
    src = os.path.dirname(os.path.dirname(wkyber.__file__))
    code = ("import sys, wkyber.protocol; print(*sorted(m for m in "
            "sys.modules if m.startswith('wkyber.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert proc.stdout.split() == [f"wkyber.{m}" for m in (
        "bch", "core", "modem", "params", "pke", "protocol", "transport")]
