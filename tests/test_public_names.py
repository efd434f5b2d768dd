"""The package's public names."""

import micdof


def test_every_public_name_resolves_and_is_listed_once():
    # A name left in __all__ after its definition is gone fails here, as
    # does one listed twice.
    names = micdof.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(micdof, name)]
    assert missing == []
