import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import qinv
from qinv import new_state

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)


def subprocess_env() -> dict[str, str]:
    """Environment for a ``python`` subprocess that imports the qinv under
    test, whether or not it is installed: its directory leads PYTHONPATH."""
    src = str(Path(qinv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def count_calls(monkeypatch, targets) -> list[str]:
    """Record the name of every call of each (module, name) in ``targets``,
    in call order; each call still runs the wrapped function."""
    calls = []
    for module, name in targets:
        def counting(*args, name=name, f=getattr(module, name)):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def peak_states(n: int, fn, *args):
    """Call ``fn(*args)`` once to fill caches and load modules, then again
    under tracemalloc. Returns that result and the peak memory allocated
    during the call, in units of one n-qubit state (16 * 2**n bytes); the
    result itself counts, so a call that makes only its output reads 1."""
    fn(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - before) / (16 << n)


@pytest.fixture
def ghz3():
    return new_state(3, [S2, 0, 0, 0, 0, 0, 0, S2])


@pytest.fixture
def w3():
    return new_state(3, [0, S3, S3, 0, S3, 0, 0, 0])


@pytest.fixture
def zero3():
    return new_state(3, [1, 0, 0, 0, 0, 0, 0, 0])


@pytest.fixture
def bell():
    return new_state(2, [S2, 0, 0, S2])


@pytest.fixture
def singlet():
    return new_state(2, [0, S2, -S2, 0])
