"""The package root's public names, and the oracle's independence from the fast path."""

import ast
import sys
from pathlib import Path

import wignerqi
from wignerqi import qmath, states
from wignerqi.lorentz import MomentumConfig, momentum_traced_channel
from wignerqi.measures import concurrence


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


def test_scalar_api_reaches_the_named_layer_functions(monkeypatch):
    # Tracing tools rebind these module-level names in every wignerqi module
    # and count the calls; the kernels must look them up there, not bypass them.
    counts = {}
    originals = {
        "partial_trace": qmath.partial_trace,
        "matrix_sqrt_psd": qmath.matrix_sqrt_psd,
        "validate_density": states.validate_density,
    }

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    by_id = {id(fn): counting(name, fn) for name, fn in originals.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name == "wignerqi" or module_name.startswith("wignerqi."):
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    monkeypatch.setattr(module, attr, by_id[id(value)])
    rho = momentum_traced_channel(wignerqi.make_state("w"), (0.3, 1.1, -0.7), MomentumConfig(0.6))
    concurrence(wignerqi.reduced(rho, (0, 1)))
    assert set(counts) == set(originals)
