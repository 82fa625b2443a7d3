import fbsdelab


def test_export_list_resolves():
    names = fbsdelab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fbsdelab, name)]
    assert not missing
    namespace = {}
    exec("from fbsdelab import *", namespace)
    assert set(names) <= set(namespace)
