import os
import sys
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
