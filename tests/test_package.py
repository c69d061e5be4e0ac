import pursuit
from pursuit import cli, solver, verify
from pursuit.spaces import MetricGraphSpace, Net

DELETED = ["Polyline", "polyline_length", "pos_metrics", "shift",
           "common_subdivision", "policy_strategy", "MalformedPathError",
           "random_oracle_instances", "default_family", "Policy",
           "Perturbation", "Strategy"]
DELETED_ATTRS = [(verify, "random_oracle_instances"),
                 (verify, "_tuple_pos_distance"),
                 (solver, "default_family"),
                 (MetricGraphSpace, "total_length"),
                 (solver.ReachSet, "of"),
                 (Net, "_point_arrays"),
                 (cli, "_Text"),
                 (cli, "_float_text")]


def test_all_names_resolve():
    assert len(set(pursuit.__all__)) == len(pursuit.__all__)
    for name in pursuit.__all__:
        assert getattr(pursuit, name) is not None, name


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in pursuit.__all__
        assert not hasattr(pursuit, name), name
    for owner, name in DELETED_ATTRS:
        assert not hasattr(owner, name), name
