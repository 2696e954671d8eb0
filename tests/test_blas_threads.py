"""The BLAS thread rule of `import rotape`, each case in a fresh interpreter.

When importing rotape is what loads numpy and the caller has set none of
OpenBLAS's thread variables, numpy loads with one BLAS thread; the
environment is left as it was found, so child processes inherit the
caller's.  A caller's own setting, or a numpy that is already loaded, is
left alone.  No case starts more than two BLAS threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotape

VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# records every variable set through os.environ while rotape is imported
_CHILD = """
import json, os, sys
sets = []
_setitem = type(os.environ).__setitem__
def _record(env, key, value):
    sets.append(key)
    _setitem(env, key, value)
{before}
before = dict(os.environ)
type(os.environ).__setitem__ = _record
import rotape
type(os.environ).__setitem__ = _setitem
tasks = "/proc/self/task"
print(json.dumps({{"unchanged": dict(os.environ) == before, "sets": sets,
                  "variables": {{k: os.environ.get(k) for k in {variables!r}}},
                  "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None}}))
"""

_NUMPY_FIRST = """
os.environ["OPENBLAS_NUM_THREADS"] = "2"
import numpy
del os.environ["OPENBLAS_NUM_THREADS"]
"""


def _import_rotape(before: str = "", **variables) -> dict:
    """What a fresh interpreter saw while importing rotape, with the given
    thread variables and none of the others; `before` runs first."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(rotape.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    child = subprocess.run([sys.executable, "-c", _CHILD.format(before=before, variables=VARIABLES)],
                           env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def test_import_leaves_no_thread_variable_behind():
    seen = _import_rotape()
    assert seen["unchanged"]
    assert seen["variables"] == {k: None for k in VARIABLES}


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc/self/task; one CPU starts no BLAS workers")
def test_import_loads_numpy_with_one_blas_thread():
    assert _import_rotape()["threads"] == 1


def test_caller_thread_setting_wins():
    seen = _import_rotape(OPENBLAS_NUM_THREADS="2")
    assert seen["unchanged"] and seen["sets"] == []
    assert seen["variables"]["OPENBLAS_NUM_THREADS"] == "2"


def test_numpy_loaded_first_is_left_alone():
    seen = _import_rotape(_NUMPY_FIRST)
    assert seen["unchanged"] and seen["sets"] == []
    assert seen["variables"] == {k: None for k in VARIABLES}
