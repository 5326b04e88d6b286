"""The package's public surface: what `import complykit` offers."""

import ast
from pathlib import Path

import complykit


def test_all_is_every_public_name_init_imports():
    tree = ast.parse(Path(complykit.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(complykit.__all__) == public
    for name in complykit.__all__:
        assert hasattr(complykit, name), name
    # The row-scan confusion is test code (reference.py), and no metric
    # uses a percentile.
    for name in ("confusion", "percentile"):
        assert not hasattr(complykit, name), name
