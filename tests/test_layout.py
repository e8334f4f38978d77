"""Module boundaries and exported names of the package."""

import ast
import importlib
from pathlib import Path

import gse

PACKAGE = Path(gse.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_imports(path: Path) -> list[str]:
    """Underscore names `path` takes from other gse modules: imported by
    name, or read as an attribute of an imported gse module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "gse"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module is None or node.module == "gse":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gse":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
                 if (names := _private_imports(path))}
    assert offenders == {}



def test_every_exported_name_is_defined():
    modules = [importlib.import_module(f"gse.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"] + [gse]
    missing = {module.__name__: [name for name in module.__all__
                                 if not hasattr(module, name)]
               for module in modules if hasattr(module, "__all__")}
    assert "gse.fermionic" in missing
    assert all(names == [] for names in missing.values()), missing
