"""The public namespace: every exported name resolves, every module uses
what it imports and every private function it defines, every dataclass is
frozen, one rule refuses non-finite input, and the README's library example
runs."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import renflow

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(renflow.__file__).resolve().parent


def test_all_names_resolve():
    missing = [name for name in renflow.__all__ if not hasattr(renflow, name)]
    assert missing == []
    assert len(set(renflow.__all__)) == len(renflow.__all__)


def test_star_import():
    namespace = {}
    exec("from renflow import *", namespace)
    assert set(renflow.__all__) <= set(namespace)


def test_modules_use_every_name_they_import():
    """A name left imported after the code that read it is gone is refused;
    `__init__` imports to re-export and is not checked."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []


def test_every_private_function_is_used():
    """A private function or method that nothing in the package names any
    more, such as a helper whose caller was folded away, is refused."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {
        node.name for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert sorted(defined - named) == []


def test_every_dataclass_is_frozen():
    """A dataclass whose fields can be reassigned after its checks ran is refused."""
    modules = [importlib.import_module(f"renflow.{info.name}")
               for info in pkgutil.iter_modules(renflow.__path__)]
    classes = [
        obj for module in modules for obj in vars(module).values()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type)
        and obj.__module__ == module.__name__
    ]
    assert len(classes) >= 13
    assert [cls.__qualname__ for cls in classes if not cls.__dataclass_params__.frozen] == []


def test_only_the_series_rule_refuses_a_non_finite_value():
    """`isfinite` is read only in `errors._series`, the one refusal of a non-finite
    input, and where a finite test refuses no input series: a scalar order, the two
    CSV parse masks that omit a bad cell by design, and the colour range of a grid
    whose diagonal is NaN."""
    allowed = {"errors._series", "infocore._order", "ingest._parse_table", "ingest._parse_rows",
               "report._matrix_svg"}
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) == "isfinite":
                owners = [f.name for f in scopes if f.lineno <= node.lineno <= f.end_lineno]
                readers.add(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    assert readers == allowed


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    rng = np.random.default_rng(3)
    prices = 100 + np.cumsum(rng.normal(0, 1.0, size=(2, 4000)), axis=1)
    np.savetxt(tmp_path / "a.txt", prices[0])
    np.savetxt(tmp_path / "b.txt", prices[1])
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    bits, windows, replicas = capsys.readouterr().out.splitlines()
    assert len([float(v) for v in bits.split()]) == 3
    assert int(windows) == 398
    assert len(ast.literal_eval(replicas)) == 20
