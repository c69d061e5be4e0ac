import pursuit

DELETED = ["Polyline", "polyline_length", "pos_metrics", "shift",
           "common_subdivision", "policy_strategy", "MalformedPathError"]


def test_all_names_resolve():
    assert len(set(pursuit.__all__)) == len(pursuit.__all__)
    for name in pursuit.__all__:
        assert getattr(pursuit, name) is not None, name


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in pursuit.__all__
        assert not hasattr(pursuit, name), name
