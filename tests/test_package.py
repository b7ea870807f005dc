"""The package's export list matches what it actually exposes."""

import types

import diagalg


def test_all_lists_every_public_name_once_sorted():
    exported = diagalg.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name for name, value in vars(diagalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
