"""Every name the demos and the README import from dynlearn exists.

Nothing here runs a demo: each file and each ```python block of the
README is parsed, and every `from dynlearn... import name` and
`import dynlearn...` in it is resolved against the installed library.
"""

import ast
import importlib
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


def dynlearn_imports(text):
    """(module, name or None) for every import of dynlearn in the source."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "dynlearn":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dynlearn":
                    yield alias.name, None


SOURCES = dict(sources())


def test_sources_found():
    assert sum(name.endswith(".py") for name in SOURCES) >= 6
    assert any(name.startswith("README.md") for name in SOURCES)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_imported_names_exist(source):
    missing = []
    for module, name in dynlearn_imports(SOURCES[source]):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{source} imports names dynlearn does not have: {missing}"
