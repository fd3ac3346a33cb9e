"""The package exports exactly what the README's "Public API" section lists,
and the demos import nothing else from it."""

import ast
import re
from pathlib import Path

import pytest

import quasar_opt

ROOT = Path(__file__).resolve().parents[1]


def readme_api():
    """Backticked names on the bullet lines of the README's "Public API"
    section, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return [name
            for line in section.splitlines() if line.startswith("- ")
            for name in re.findall(r"`(\w+)`", line)]


def test_all_equals_readme_list():
    names = readme_api()
    assert names, "README has no Public API list"
    assert quasar_opt.__all__ == [*names, "__version__"]


@pytest.mark.parametrize("name", quasar_opt.__all__)
def test_every_export_resolves(name):
    assert hasattr(quasar_opt, name)


def test_demos_import_only_public_names():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "quasar_opt":
                names = {alias.name for alias in node.names}
                assert names <= set(quasar_opt.__all__), (path.name, names)
