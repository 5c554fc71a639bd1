"""Every name that src/scoopgp defines has a caller in src/.

A function, class, method or property that only tests use belongs in
tests/ as an oracle, or nowhere; a private helper that nothing calls any
more belongs nowhere. Uses are matched by name, as a name or an attribute
read outside the definition's own body, so an attribute of the same name
on another class counts as a use: the guard catches a name nothing reads,
not every unused method. Dunder methods stay out: the language calls
them (__init__ on construction, __enter__ in a with statement), so no
code reads them by name.
"""
import ast
from pathlib import Path

import scoopgp

SRC = Path(scoopgp.__file__).parent

# names kept for callers outside src/, each with its reason
KEEP = {
    # tests/test_acceptance.py checks the paper's criteria through these
    "gp.posterior": "acceptance criterion 1 checks the one-query posterior",
    "gp.rbf": "acceptance criterion 1 builds its oracle from the scalar kernel",
    # gp.GPPosterior needs no entry: gp.posterior reads it
    "ot.sample_cost": "acceptance criterion 3 checks the composite sample cost",
    "ot.cost_matrix": "acceptance criterion 3 builds cost matrices of two tasks",
    "ot.sinkhorn_divergence": "acceptance criterion 3 checks the debiased divergence",
    # perfbench/layers.py wraps these by name
    "model.DeepGPModel.feature_vector": "perfbench counts predicted rows through it",
    "model.DeepGPModel.predict_batch": "perfbench times model.predict through it",
    # scripts/paper_grid_step.py times a live step on the paper grid
    "decision.ActionGrid.paper_scale": "the paper-scale grid of scripts/paper_grid_step.py",
    # perfbench/bench.py writes its trace lines through it (ROADMAP item 6 deletes it)
    "decision.EpisodeTrace.to_dict": "perfbench digests its traces from trace.to_dict()",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of each module-level function and
    class and each method and property of a class, public or private,
    dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _reads(node: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def unused_names() -> list[str]:
    """Qualified names of the definitions nothing in src/ reads, the
    keep-list's included."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads: dict[str, int] = {}
    for tree in trees.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree, module)
        if reads.get(name, 0) == _reads(node).count(name)
    ]


def test_every_public_name_has_a_src_caller():
    assert sorted(set(unused_names()) - set(KEEP)) == []


def test_every_kept_name_exists_without_a_src_caller():
    # a kept name that is gone, or that src/ has come to use, leaves the list
    assert sorted(set(KEEP) - set(unused_names())) == []


def test_private_names_are_checked_and_dunder_methods_are_not():
    tree = ast.parse("def _helper(): pass\nclass _K:\n    def __init__(self): pass\n    def _m(self): pass\n")
    assert [qualified for qualified, _, _ in _definitions(tree, "m")] == ["m._helper", "m._K", "m._K._m"]
