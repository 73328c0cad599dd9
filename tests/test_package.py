import gravelast


def test_every_exported_name_resolves():
    missing = [name for name in gravelast.__all__ if not hasattr(gravelast, name)]
    assert missing == []
    assert len(set(gravelast.__all__)) == len(gravelast.__all__)
