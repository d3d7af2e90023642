import subprocess
import sys
import types

import pytest

import anovabf


def test_all_lists_the_public_names():
    # the exports load on first use, so dir() and __all__ come from one table
    public = {
        name
        for name in dir(anovabf)
        if not name.startswith("_") and not isinstance(getattr(anovabf, name), types.ModuleType)
    }
    assert len(anovabf.__all__) == len(set(anovabf.__all__))
    assert set(anovabf.__all__) == public


@pytest.mark.parametrize("name", anovabf.__all__)
def test_name_is_the_object_of_its_defining_module(name):
    value = getattr(anovabf, name)
    assert value.__module__.startswith("anovabf.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        anovabf.no_such_name  # noqa: B018
    assert not hasattr(anovabf, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from anovabf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(anovabf.__all__)
    assert all(namespace[name] is getattr(anovabf, name) for name in anovabf.__all__)


def test_import_loads_no_numpy(child_env):
    probe = (
        "import sys\n"
        "import anovabf\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('anovabf', 'numpy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['anovabf']\n"
