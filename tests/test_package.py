"""The package namespace."""

import coxsums


def test_every_export_resolves():
    missing = [name for name in coxsums.__all__ if not hasattr(coxsums, name)]
    assert not missing

