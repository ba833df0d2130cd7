"""numpy stays the only runtime dependency: ``src/capsift`` imports nothing
but the standard library, numpy and capsift itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "capsift"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "capsift"}


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in the file at ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_capsift_imports_only_the_standard_library_numpy_and_itself():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    outside = {(str(path.relative_to(SRC)), name)
               for path in files for name in imported_packages(path) - ALLOWED}
    assert outside == set()


def test_the_import_check_sees_every_kind_of_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os.path, scipy.sparse as sp\n"
                    "from sklearn.svm import SVC\n"
                    "from . import corpus\n"
                    "def f():\n"
                    "    import pandas\n", encoding="utf-8")
    assert imported_packages(path) == {"os", "scipy", "sklearn", "pandas"}
    assert imported_packages(path) - ALLOWED == {"scipy", "sklearn", "pandas"}
