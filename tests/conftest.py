import os
from pathlib import Path

import pytest

import anovabf


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this tree's anovabf.

    The directory the tests imported the package from goes first on the
    child's PYTHONPATH, ahead of any installed copy.
    """
    env = dict(os.environ)
    src = str(Path(anovabf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
