"""Static hygiene of the package sources: every import is used."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tubecomp").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import os.path\nfrom math import pi, tau\n"
              "from .models import first_zero\n__all__ = ['first_zero']\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
