import types

import anovabf


def test_all_lists_the_public_names():
    # __init__ names each export twice, once imported and once in __all__
    public = {
        name
        for name, value in vars(anovabf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(anovabf.__all__) == len(set(anovabf.__all__))
    assert set(anovabf.__all__) == public
