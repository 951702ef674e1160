"""Module boundaries: no module reaches into another's private names."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "coopd2d").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py")
)


def private_imports(path):
    """``(line, module, name)`` of each underscore name imported from coopd2d."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "coopd2d":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"experiments.py", "checks.py", "link_rate_gap.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path) == []


def imported_modules(path):
    """Top-level names of the modules ``path`` imports, relative imports left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_experiments_writes_csv():
    # every CSV goes through experiments.write_csv, with its schema line
    package = sorted((ROOT / "src" / "coopd2d").glob("*.py"))
    assert [p.name for p in package if "csv" in imported_modules(p)] == ["experiments.py"]


def test_errors_imports_no_package_module():
    # every module checks its inputs against errors.check_number, so errors
    # must stay the bottom of the import graph
    path = ROOT / "src" / "coopd2d" / "errors.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    relative = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == [] and "coopd2d" not in imported_modules(path)
