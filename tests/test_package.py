import risdet


def test_every_export_resolves():
    # A deleted function must leave no stale name behind in __all__.
    missing = [name for name in risdet.__all__ if not hasattr(risdet, name)]
    assert missing == []
    assert len(set(risdet.__all__)) == len(risdet.__all__)
