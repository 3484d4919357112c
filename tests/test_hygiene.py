"""Source hygiene: every name a library module imports is used in it, and
no raw-stride view can be written through.

Package ``__init__`` modules are skipped by the import check, since they
import to re-export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations and ``__all__`` entries name things in strings
    used |= {n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return [f"{path.relative_to(SRC)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_library_modules_use_every_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for p in modules for entry in unused_imports(p)]
    assert unused == []


def writable_strided_views(path: Path) -> list[str]:
    """``file:line`` for each ``as_strided`` call without ``writeable=False``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "as_strided":
            continue
        flags = [k.value for k in node.keywords if k.arg == "writeable"]
        if not (flags and isinstance(flags[0], ast.Constant) and flags[0].value is False):
            found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_strided_views_are_read_only():
    # a window view aliases each input element many times, so a write through
    # it would change every window that shares the element
    found = [entry for p in sorted(SRC.rglob("*.py")) for entry in writable_strided_views(p)]
    assert found == []
