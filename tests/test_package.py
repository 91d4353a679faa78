import nmarl


def test_every_export_resolves():
    missing = [name for name in nmarl.__all__ if not hasattr(nmarl, name)]
    assert missing == []
