"""Source hygiene: every name a library module imports is used in it, every
module-level private function or class is referenced, every attribute the
library assigns is read, no module reads another's private names, and no
raw-stride view can be written through.

Package ``__init__`` modules are skipped by the import check, since they
import to re-export.
"""

import ast
import importlib
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent


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
    # quoted annotations name things in strings
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


def private_definitions(path: Path) -> list[tuple[str, str]]:
    """``(name, file:line)`` for each module-level ``_name`` function or class."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.name, f"{path.relative_to(SRC)}:{node.lineno}") for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def references(path: Path) -> set[str]:
    """Names the module reads, bare or as an attribute (``obj._name``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_private_definitions_are_referenced():
    # catches a builder left behind unregistered, or a helper whose last caller went
    modules = sorted(SRC.rglob("*.py"))
    defined = [d for p in modules for d in private_definitions(p)]
    assert defined
    used = set().union(*(references(p) for p in modules))
    assert [f"{where} {name}" for name, where in defined if name not in used] == []


def foreign_private_reads(path: Path) -> list[str]:
    """``file:line module._name`` for each private name the module reads off
    another deepseries module it imported."""
    parts = path.relative_to(SRC).with_suffix("").parts
    module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.attr.startswith("_") and not n.attr.startswith("__")):
            continue
        other = getattr(module, n.value.id, None)
        if (isinstance(other, types.ModuleType) and other is not module
                and other.__name__.startswith("deepseries")):
            found.append(f"{path.relative_to(SRC)}:{n.lineno} {n.value.id}.{n.attr}")
    return found


def test_modules_read_no_private_names_of_other_modules():
    # a private name is free to change with its own module; a reader elsewhere
    # pins it, so a rule two modules share belongs in public API
    found = [entry for p in sorted(SRC.rglob("*.py")) for entry in foreign_private_reads(p)]
    assert found == []


def attribute_uses(path: Path) -> tuple[list[tuple[str, str]], set[str]]:
    """``(attr, file:line)`` for each ``obj.attr = ...`` target, and the set of
    attribute names the module reads (an augmented assignment reads too)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assigned = [(n.attr, f"{path.name}:{n.lineno}") for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)]
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    read |= {n.target.attr for n in ast.walk(tree)
             if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute)}
    return assigned, read


def test_assigned_attributes_are_read():
    # an attribute the library sets and nothing reads is dead state that every
    # caller still has to reason about
    assigned = [a for p in sorted(SRC.rglob("*.py")) for a in attribute_uses(p)[0]]
    assert assigned
    read = set().union(*(attribute_uses(p)[1]
                         for p in sorted(SRC.rglob("*.py")) + sorted(TESTS.glob("*.py"))))
    assert [f"{where} {attr}" for attr, where in assigned if attr not in read] == []


def _calls(source: str):
    """``(call, name)`` for each call in ``source``, named by its last attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            yield node, func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def writable_strided_views(source: str) -> list[int]:
    """Lines of each raw-stride view that can be written through: an
    ``as_strided`` call without ``writeable=False``, a ``sliding_window_view``
    call whose ``writeable`` is given as anything but ``False`` (it defaults
    to read-only), or an ``ndarray`` made on a buffer other than a
    ``.toreadonly()`` memoryview."""
    found = []
    for node, name in _calls(source):
        keywords = {k.arg: k.value for k in node.keywords}
        if name in ("as_strided", "sliding_window_view"):
            flag = keywords.get("writeable")
            safe = ((flag is None and name == "sliding_window_view")
                    or (isinstance(flag, ast.Constant) and flag.value is False))
        elif name == "ndarray" and ("buffer" in keywords or len(node.args) > 2):
            buf = keywords.get("buffer") or node.args[2]
            safe = isinstance(buf, ast.Call) and getattr(buf.func, "attr", None) == "toreadonly"
        else:
            continue
        if not safe:
            found.append(node.lineno)
    return found


def test_strided_views_are_read_only():
    # a window view aliases each input element many times, so a write through
    # it would change every window that shares the element
    found = [f"{p.relative_to(SRC)}:{line}" for p in sorted(SRC.rglob("*.py"))
             for line in writable_strided_views(p.read_text(encoding="utf-8"))]
    assert found == []
    assert writable_strided_views(
        "as_strided(x, s, t)\n"
        "as_strided(x, s, t, writeable=False)\n"
        "np.ndarray(s, buffer=x, strides=t)\n"
        "np.ndarray(s, float, x, 0, t)\n"
        "np.ndarray(s, buffer=memoryview(x).toreadonly(), strides=t)\n"
        "np.ndarray(s)\n"
        "sliding_window_view(x, 3, axis=0)\n"
        "sliding_window_view(x, 3, writeable=False)\n"
        "np.lib.stride_tricks.sliding_window_view(x, 3, writeable=True)\n"
        "sliding_window_view(x, 3, writeable=flag)\n") == [1, 3, 4, 9, 10]


def per_call_rebuilds(source: str) -> list[int]:
    """Lines that use ``np.pad`` or ``np.r_``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("pad", "r_")
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]


def test_layers_use_neither_np_pad_nor_np_r():
    # each rebuilds on every call what does not depend on the input: np.pad
    # its pad widths and fill, np.r_ its index array (13-40 us at batch 1 on
    # a 2-vCPU x86 host); zero the pad steps and copy the input in, or fix
    # the index when the layer is built
    found = [f"{p.relative_to(SRC)}:{line}"
             for p in sorted((SRC / "deepseries" / "layers").glob("*.py"))
             for line in per_call_rebuilds(p.read_text(encoding="utf-8"))]
    assert found == []
    assert per_call_rebuilds("np.pad(x, 1)\nnp.r_[:2, 3]\nx.pad\n") == [1, 2]
