import delpezzo


def test_every_exported_name_resolves():
    # a deleted function must not stay in the export list
    assert [name for name in delpezzo.__all__ if not hasattr(delpezzo, name)] == []
    assert len(set(delpezzo.__all__)) == len(delpezzo.__all__)
    namespace = {}
    exec("from delpezzo import *", namespace)
    assert set(delpezzo.__all__) <= namespace.keys()
