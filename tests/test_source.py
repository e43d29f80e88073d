"""Static checks on the package source: every imported name is read, and no
code switches on block type."""

import ast
from pathlib import Path

import pytest

import maskprune

PACKAGE_DIR = Path(maskprune.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line (``__future__`` excluded)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded identifiers, names inside quoted
    annotations, and the entries of ``__all__`` (a re-export is a read)."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for note in annotations(tree):
        for const in ast.walk(note):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "models.py", "trainer.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never read: {unused}"


#: each block kind describes its own layers, compaction and cost
BLOCK_CLASSES = {"ConvBlock", "LinearBlock", "ResidualBlock", "PoolBlock", "FlattenBlock"}


def block_type_checks(tree: ast.Module) -> list[int]:
    """Lines of the ``isinstance`` calls whose class argument names a block
    class, alone or in a tuple, bare or as a module attribute."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            classes = node.args[1]
            for ref in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
                name = ref.attr if isinstance(ref, ast.Attribute) else getattr(ref, "id", None)
                if name in BLOCK_CLASSES:
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_isinstance_on_a_block_class(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert block_type_checks(tree) == [], f"{path.name}: isinstance on a block class"


def test_block_type_checks_are_found():
    src = ("isinstance(b, ConvBlock)\nisinstance(b, (int, models.PoolBlock))\n"
           "isinstance(b, BatchNorm2d)\n")
    assert block_type_checks(ast.parse(src)) == [1, 2]
