"""Static checks on the package source: no line is over 100 columns, every
imported name is read, no code switches on block type, the block classes share
one interface, every config field is read, and every package constant README
names exists with the value README gives."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import maskprune
from maskprune.config import ExperimentConfig

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
def test_no_line_is_over_100_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == [], f"{path.name}: lines over 100 columns"


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


def block_methods(tree: ast.Module) -> dict[str, dict[str, list[str]]]:
    """Per block class, its public methods (properties aside) and each one's
    parameter names."""
    return {node.name: {f.name: [a.arg for a in f.args.args + f.args.kwonlyargs]
                        for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                        and not f.decorator_list}
            for node in tree.body if isinstance(node, ast.ClassDef) and node.name in BLOCK_CLASSES}


def test_block_classes_share_one_interface():
    # the model walks its blocks through these methods alone, so a block kind
    # that renames a parameter or lacks a method breaks it only at run time
    methods = block_methods(ast.parse((PACKAGE_DIR / "models.py").read_text()))
    assert methods.keys() == BLOCK_CLASSES
    assert {name: m for name, m in methods.items() if m != methods["ConvBlock"]} == {}


def test_block_interface_differences_are_found():
    src = ("class ConvBlock:\n    def sliced(self, active, keep): ...\n"
           "    @property\n    def gated(self): ...\n"
           "class PoolBlock:\n    def sliced(self, active, *, velocity): ...\n"
           "    def _walk(self): ...\nclass Model:\n    def forward(self, x): ...\n")
    assert block_methods(ast.parse(src)) == {
        "ConvBlock": {"sliced": ["self", "active", "keep"]},
        "PoolBlock": {"sliced": ["self", "active", "velocity"]}}


def config_reads(tree: ast.Module) -> set[str]:
    """Config fields a module reads: ``cfg.<field>`` and ``<obj>.cfg.<field>``,
    and the entries of a literal tuple or list of names, inline or bound to a
    module-level name like ``RUN_FIELDS``, that a loop hands to ``getattr``."""
    lists = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    by_name = {n.args[1].id for n in ast.walk(tree)
               if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
               and len(n.args) >= 2 and isinstance(n.args[1], ast.Name)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (getattr(node.value, "id", None) == "cfg"
                                                or getattr(node.value, "attr", None) == "cfg"):
            reads.add(node.attr)
        elif (isinstance(node, (ast.For, ast.comprehension))
              and getattr(node.target, "id", None) in by_name):
            names = lists.get(getattr(node.iter, "id", None), node.iter)
            if isinstance(names, (ast.Tuple, ast.List)):
                reads.update(e.value for e in names.elts if isinstance(e, ast.Constant))
    return reads


def test_every_config_field_is_read():
    # a field that no module reads is a knob that changes nothing; config.py
    # itself, which validates and renders every field, does not count
    reads = set().union(*(config_reads(ast.parse(p.read_text())) for p in MODULES
                          if p.name != "config.py"))
    unread = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in reads]
    assert unread == []


def test_config_reads_are_found():
    src = ("cfg.rate\nself.cfg.seed\nFIELDS = ('model', 'flip')\n"
           "[getattr(c, f) for f in FIELDS]\nfor g in ('lr',):\n    getattr(c, g)\n"
           "for h in ('window',):\n    pass\nother.batch_size\nconfig.classes\n")
    assert config_reads(ast.parse(src)) == {"rate", "seed", "model", "flip", "lr"}


#: a backticked constant of a package module, with or without its value:
#: `trainer.WINDOW` or `trainer.WINDOW = 3`
README_CONSTANT = re.compile(r"`([a-z_]+)\.([A-Z][A-Z0-9_]*)(?: = ([^`]+))?`")


def constant_drift(text: str) -> list[str]:
    """Each README constant that names no package constant, or gives another
    value than the package holds."""
    drift = []
    for module, name, value in README_CONSTANT.findall(text):
        if not (PACKAGE_DIR / f"{module}.py").exists():
            drift.append(f"{module}.{name}: no module maskprune.{module}")
            continue
        mod = importlib.import_module(f"maskprune.{module}")
        if not hasattr(mod, name):
            drift.append(f"{module}.{name}: no such constant")
        elif value and ast.literal_eval(value) != getattr(mod, name):
            drift.append(f"{module}.{name}: README {value}, package {getattr(mod, name)!r}")
    return drift


def test_readme_constants_match_the_package():
    text = (PACKAGE_DIR.parent.parent / "README.md").read_text()
    assert len(README_CONSTANT.findall(text)) >= 20
    assert constant_drift(text) == []


def test_readme_constant_drift_is_found():
    text = ("`trainer.WINDOW = 3` `config.DEFAULT_WINDOW` `trainer.DELTA_BIN = 0.5` "
            "`layers.DELTA_FREEZE` `Model.forward` `numpy.NAN`")
    assert constant_drift(text) == ["config.DEFAULT_WINDOW: no such constant",
                                    "trainer.DELTA_BIN: README 0.5, package 0.01",
                                    "numpy.NAN: no module maskprune.numpy"]
