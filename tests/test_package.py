"""The package module itself: ``import wkyber`` runs only ``__init__``."""

import os
import subprocess
import sys

import wkyber


def loaded_after(module, numpy=False):
    """The wkyber submodules, and with numpy=True the numpy modules, that a
    fresh interpreter holds after importing module."""
    src = os.path.dirname(os.path.dirname(wkyber.__file__))
    code = (f"import sys, {module}; print(*sorted(m for m in sys.modules "
            f"if m.startswith('wkyber.') or {numpy} and "
            f"m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return proc.stdout.split()


def test_import_loads_no_submodule_and_no_numpy():
    # every verb and library user imports a submodule explicitly; the bare
    # package import stays free of numpy and of every wkyber submodule
    assert loaded_after("wkyber", numpy=True) == []


def test_session_stack_loads_no_law():
    # the wire and the sessions need no probability law: importing the
    # protocol loads the session stack and nothing of reliability
    assert loaded_after("wkyber.protocol") == [f"wkyber.{m}" for m in (
        "bch", "core", "modem", "params", "pke", "protocol", "transport")]


def test_law_engine_loads_no_session():
    # the laws and the failure engine need no wire or session: importing
    # reliability loads the ring, the modem's crossover and nothing of the
    # session stack
    assert loaded_after("wkyber.reliability") == [f"wkyber.{m}" for m in (
        "core", "modem", "params", "reliability")]
