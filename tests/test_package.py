import artex


def test_every_exported_name_resolves():
    assert [name for name in artex.__all__ if not hasattr(artex, name)] == []
    assert len(set(artex.__all__)) == len(artex.__all__)
