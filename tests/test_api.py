"""The package root's public names, and the oracle's independence from the fast path."""

import ast
from pathlib import Path

import wignerqi


def test_public_names_resolve_and_do_not_repeat():
    assert len(set(wignerqi.__all__)) == len(wignerqi.__all__)
    assert [name for name in wignerqi.__all__ if not hasattr(wignerqi, name)] == []


def test_oracle_imports_only_the_state_containers():
    # The oracle checks the fast path, so it may share nothing with it but
    # the validated containers it returns.
    tree = ast.parse(Path(wignerqi.__file__).with_name("oracle.py").read_text())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("wignerqi")):
            imports.append(("." * node.level + (node.module or ""), [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            imports.extend((alias.name, []) for alias in node.names if alias.name.startswith("wignerqi"))
    assert imports == [(".states", ["DensityOperator", "PureState"])]
