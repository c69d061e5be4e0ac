import ast
from pathlib import Path

import pursuit
from pursuit import cli, errors, solver, verify
from pursuit.game import Trajectory
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
                 (cli, "_float_text"),
                 (MetricGraphSpace, "_vertex_path"),
                 (MetricGraphSpace, "_hop_segment"),
                 (Trajectory, "gap"),
                 (solver.ValueTable, "layer"),
                 (cli, "_Coded"),
                 (cli, "_json_key"),
                 (solver, "_distance_ranks"),
                 (Net, "_ranks"),
                 (cli, "_scalar"),
                 (errors, "AgilityError"),
                 (errors, "ArityError"),
                 (errors, "UnknownStrategyError")]


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


_SRC = Path(pursuit.__file__).resolve().parent


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(_SRC.glob("*.py"))}


def _defined(stmt):
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _references(node):
    """The names ``node`` reads: bare names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _exported(tree):
    """The strings of the module's ``__all__`` list, if it has one."""
    for stmt in tree.body:
        if "__all__" in _defined(stmt):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_every_import_is_used():
    for name, tree in _trees().items():
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused = sorted(imported - used - _exported(tree))
        assert not unused, f"{name} imports {unused} and never uses them"


def test_every_private_module_name_is_referenced():
    trees = _trees()
    # per top-level statement: the names it defines and the names it reads
    statements = [(_defined(stmt), set(_references(stmt)))
                  for tree in trees.values() for stmt in tree.body]
    for name, tree in trees.items():
        for stmt in tree.body:
            for private in _defined(stmt):
                if not private.startswith("_") or private.startswith("__"):
                    continue
                # a reference from its own definition (recursion) does not count
                assert any(private in reads for defines, reads in statements
                           if private not in defines), f"{name}: {private} is never used"
