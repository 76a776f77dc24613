"""The package's exports match what it defines: no stale or missing names."""

import types

import cabdm


def test_all_names_resolve_once():
    assert len(cabdm.__all__) == len(set(cabdm.__all__))
    for name in cabdm.__all__:
        assert hasattr(cabdm, name), name


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(cabdm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cabdm.__all__) == public
