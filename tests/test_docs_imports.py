"""Every name the demos and the README import from dynlearn exists, and
every keyword argument they pass to it is one of its parameters.

Nothing here runs a demo: each file and each ```python block of the
README is parsed, and every `from dynlearn... import name` and
`import dynlearn...` in it is resolved against the installed library, as
is every call of such a name (or of an attribute of one) with keywords.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {k + 1}", block


def dynlearn_imports(tree):
    """(module, name or None, the name it binds) for every import of
    dynlearn in the parsed source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "dynlearn":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dynlearn":
                    yield alias.name, None, alias.asname or alias.name.split(".")[0]


SOURCES = dict(sources())


def test_sources_found():
    assert sum(name.endswith(".py") for name in SOURCES) >= 6
    assert any(name.startswith("README.md") for name in SOURCES)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_imported_names_exist(source):
    missing = []
    for module, name, _ in dynlearn_imports(ast.parse(SOURCES[source])):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{source} imports names dynlearn does not have: {missing}"


def dynlearn_names(tree):
    """{local name: object} of every name the source binds by importing
    dynlearn (names the library lacks are left to the test above)."""
    names = {}
    for module, name, bound in dynlearn_imports(tree):
        mod = importlib.import_module(module)
        if name is None:
            names[bound] = mod if bound != "dynlearn" else importlib.import_module("dynlearn")
        elif hasattr(mod, name):
            names[bound] = getattr(mod, name)
    return names


def resolve(node, names):
    """The dynlearn object a call's function expression names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, names)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_keyword_arguments_are_parameters(source):
    tree = ast.parse(SOURCES[source])
    names = dynlearn_names(tree)
    unknown = []
    for node in ast.walk(tree):
        fn = resolve(node.func, names) if isinstance(node, ast.Call) else None
        if not callable(fn):
            continue
        params = inspect.signature(fn).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [f"{ast.unparse(node.func)}({kw.arg}=...)" for kw in node.keywords
                    if kw.arg is not None and (kw.arg not in params or params[kw.arg].kind is
                                               inspect.Parameter.POSITIONAL_ONLY)]
    assert not unknown, f"{source} passes keywords that are not parameters: {unknown}"
