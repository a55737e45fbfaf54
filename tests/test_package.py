"""The public namespace: every exported name resolves, every module uses
what it imports and every private function it defines, every dataclass is
frozen, one rule refuses non-finite input and one refuses a bad integer
array, one rule refuses a bad real number and one a bad probability array,
one conversion refuses a ragged array, every record holds read-only copies,
and the README's library example runs."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import renflow
from helpers import not_integers
from renflow import (
    CoupledMarkovSpec,
    DiscreteDistribution,
    EffectiveResult,
    FlowMatrix,
    HistorySpec,
    JointDistribution,
    NetFlowMatrix,
    RawSeries,
    SurrogateSpec,
    SymbolSeries,
    ValidationError,
    WordDistribution,
    copy_spec,
    entropy,
    escort,
    exact_transfer_entropy,
    generate,
    load_csv,
    m_sweep,
    noisy_copy_spec,
    pairwise_matrix,
    q_sweep,
    renyi_transfer_entropy,
)
from renflow.surrogate import effective_transfer_entropies

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


def test_no_module_compiles_a_pattern_at_import():
    """A module-level `re.compile` costs every run's start-up, so none is allowed:
    only function bodies, which run when called, are skipped."""

    def evaluated_at_import(node):
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            children = [*getattr(node, "decorator_list", []), *node.args.defaults,
                        *filter(None, node.args.kw_defaults)]
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            yield from evaluated_at_import(child)

    compiled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names if alias.name == "re"}
        compiled += [
            f"{path.name}:{node.lineno}" for node in evaluated_at_import(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in names
        ]
    assert compiled == []


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


def package_names():
    """(`module.qualname` of the enclosing class or function, name) for every name
    and attribute in the package, an attribute as its last two parts (`dtype.kind`)."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, ast.Name):
                yield f"{path.stem}.{scope or '<module>'}", node.id
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "attr", getattr(node.value, "id", ""))
                yield f"{path.stem}.{scope or '<module>'}", f"{owner}.{node.attr}"
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    stack.append((child, f"{scope}.{child.name}".lstrip(".")))
                else:
                    stack.append((child, scope))


def test_only_the_series_rule_refuses_a_non_finite_value():
    """`isfinite` is read only in `errors._series` and `errors._real`, the refusals of
    a non-finite input series and scalar, and where a finite test refuses no input:
    the two CSV parse masks that omit a bad cell by design, and the colour range of
    a grid whose diagonal is NaN."""
    allowed = {"errors._series", "errors._real", "ingest._parse_table", "ingest._parse_rows",
               "report._matrix_svg"}
    readers = {scope for scope, name in package_names() if name.rpartition(".")[2] == "isfinite"}
    assert readers == allowed


def test_only_the_array_rules_read_a_dtype_or_freeze_an_array():
    """`.dtype.kind`, `np.issubdtype` and `flags.writeable` are read only in `errors`,
    where `_integers` and `_series` refuse an array by its dtype and hand back a
    read-only copy, and in two places that refuse nothing by them:
    `SymbolSeries.__post_init__` reads whether its symbols are floats, as a symbol
    column read from CSV is, to send them to the series rule and not the integer
    rule, and `report._freeze_grid` freezes its float copy of a grid whose NaN
    diagonal no rule accepts."""
    allowed = {("symbolize.SymbolSeries.__post_init__", "dtype.kind"),
               ("report._freeze_grid", "flags.writeable")}
    readers = {(scope, name) for scope, name in package_names()
               if name in ("dtype.kind", "np.issubdtype", "flags.writeable")}
    assert {use for use in readers if not use[0].startswith("errors.")} == allowed
    assert {scope for scope, _ in readers if scope.startswith("errors.")} == {
        "errors._integers", "errors._series"}


def test_only_transfer_lays_out_a_word_table():
    """The run planner hands each draw's codes to `transfer._draw_values`, which alone
    picks a table's layout: `surrogate` imports none of the helpers that count or
    group a table and calls no `np.bincount`, sort or `np.unique` itself."""
    tree = ast.parse((PACKAGE / "surrogate.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"_tally", "_run_bounds", "_word_row", "_pair_part"})
    counted = {name for scope, name in package_names() if scope.startswith("surrogate.")
               and name.rpartition(".")[2] in ("bincount", "sort", "argsort", "unique")}
    assert counted == set()


def test_only_transfer_evaluates_a_counted_word_table():
    """The run planner hands a target part's counted words to `transfer._word_values`,
    the one evaluation of a counted table: `surrogate` reads no field of a word
    table and imports neither the table groupings nor the batch evaluator."""
    tree = ast.parse((PACKAGE / "surrogate.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"_pair_values", "_groups"})
    assert "_word_values" in imported
    fields = {name for scope, name in package_names() if scope.startswith("surrogate.")
              and name.partition(".")[2] in ("counts", "codes", "_pair_groups", "_target_groups")}
    assert fields == set()


def test_only_transfer_sets_the_windows_and_word_codes():
    """The run planner takes a target's code prefix and code count from
    `transfer._target_prefix` and each draw's source codes from `transfer._source_codes`,
    the helpers `count_words` calls: `surrogate` imports neither the history coder nor
    the digit layout and reads no history length, so it computes no first window,
    source-code scale or code-space size of its own."""
    tree = ast.parse((PACKAGE / "surrogate.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"_history_codes", "_radices"})
    assert {"_target_prefix", "_source_codes"} <= imported
    lengths = {name for scope, name in package_names() if scope.startswith("surrogate.")
               and "." in name and name.rpartition(".")[2] in ("m", "l")}
    assert lengths == set()


def test_only_infocore_forms_entropy_terms():
    """`infocore` owns the entropy algebra, the count-table evaluator included: no
    other module calls a function named `log2` or `power`, or imports the helpers
    that sum, split or combine its terms."""
    helpers = {"_count_terms", "_finite_power_sum", "_conditional_renyi"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "infocore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name in ("log2", "power"):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in helpers]
    assert found == []


def test_only_the_cli_reads_the_clock():
    """`matrix --timings` times its stages in `cli._cmd_matrix`, so no other module
    imports `time`, and neither the run planner nor `pairwise_matrix` takes a timing
    sink: every value is a function of the inputs alone."""
    importers = {path.stem for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Import) and "time" in {a.name for a in node.names}
                 or isinstance(node, ast.ImportFrom) and node.module == "time"}
    assert importers == {"cli"}
    assert list(inspect.signature(effective_transfer_entropies).parameters) == [
        "jobs", "orders", "spec"]
    assert list(inspect.signature(pairwise_matrix).parameters) == ["series", "h", "q", "spec"]


def test_only_report_encodes_csv():
    """`csv.writer` is named only in `report`, so `render` and `emit` stay the one CSV
    encoder, and no module imports a name from `csv` that would hide a writer."""
    callers = {scope.partition(".")[0] for scope, name in package_names() if name == "csv.writer"}
    imported = [path.name for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "csv"]
    assert callers == {"report"} and imported == []


def test_only_the_array_conversion_calls_asarray():
    """`np.asarray` is called only in `errors._array`, which refuses a ragged nesting
    of sequences by name; every conversion of outside input to an array goes
    through it, and `symbolize` hands its checked edge tuple to `np.searchsorted`."""
    callers = {scope for scope, name in package_names() if name == "np.asarray"}
    assert callers == {"errors._array"}


@pytest.mark.parametrize("build, name", [
    (lambda: SymbolSeries([[0, 1], [1]], 2), "symbols"),
    (lambda: RawSeries("A", [[1, 2], [3]], [1.0, 2.0]), "series 'A' timestamps"),
    (lambda: RawSeries("A", [1, 2], [[1.0, 2.0], [3.0]]), "series 'A' values"),
    (lambda: WordDistribution([[0, 3], [1]], [1, 1], 2, 2, 1, 1), "word codes"),
    (lambda: DiscreteDistribution([[0.5, 0.5], [1.0]]), "probability array"),
    (lambda: JointDistribution([[0.5, 0.5], [1.0]]), "probability array"),
    (lambda: FlowMatrix(("A", "B"), [[np.nan, 0.1], [0.2]]), "flow matrix"),
    (lambda: NetFlowMatrix(("A", "B"), [[0.0, 0.1], [-0.1]]), "net flow matrix"),
    (lambda: CoupledMarkovSpec(2, [[0.5, 0.5], [1.0]], np.full((2, 2, 2), 0.5)),
     "source_transition"),
], ids=["symbols", "timestamps", "values", "codes", "probs", "joint-probs", "flow", "net-flow",
        "transition"])
def test_a_ragged_array_is_refused_by_name(build, name):
    message = f"{name} must be a rectangular array, got a ragged nesting of sequences"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


INTEGER_ARRAYS = {
    "symbols": lambda v: SymbolSeries(v, 2),
    "series 'A' timestamps": lambda v: RawSeries("A", v, [1.0, 2.0]),
    "word codes": lambda v: WordDistribution(v, [1, 1], 2, 2, 1, 1),
    "word counts": lambda v: WordDistribution([0, 3], v, 2, 2, 1, 1),
}


@pytest.mark.parametrize("values", [
    np.array([True, False]), [0.5, 1.5], ["a", "b"], np.array([0, 2**63], dtype=np.uint64),
    np.zeros((2, 2), dtype=np.int64), np.array([], dtype=np.int64),
], ids=["bools", "fractions", "strings", "past-int64", "2-D", "empty"])
@pytest.mark.parametrize("name", list(INTEGER_ARRAYS))
def test_every_integer_array_is_refused_by_one_rule(name, values):
    """Each integer-array entry point refuses by `errors._integers`, naming its
    argument; float symbols, as a CSV column holds them, must be integral."""
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        message = f"^{re.escape(name)} must fit in int64, got {2**63}$"
    elif name == "symbols" and arr.dtype.kind == "f":
        message = "^symbols must be integers$"
    else:
        message = not_integers(name, arr.shape, arr.dtype)
    with pytest.raises(ValidationError, match=message):
        INTEGER_ARRAYS[name](values)


def copy_pair():
    """A short (target, source) pair of the three-symbol copy process."""
    return generate(copy_spec(3), 200, seed=4)


REAL_ARGUMENTS = {
    "entropy": (lambda v: entropy([0.5, 0.5], v), "Renyi order"),
    "escort": (lambda v: escort([0.5, 0.5], v).probs.tolist(), "Renyi order"),
    "renyi_transfer_entropy": (
        lambda v: renyi_transfer_entropy(WordDistribution([0, 3], [1, 1], 2, 2, 1, 1), v),
        "Renyi order"),
    "m_sweep": (lambda v: m_sweep(*copy_pair(), (1,), v, SurrogateSpec(0), min_windows=0).rows,
                "Renyi order"),
    "q_sweep": (
        lambda v: q_sweep(*copy_pair(), HistorySpec(1, 1), (1.0, v), SurrogateSpec(0)).rows,
        "Renyi order"),
    "exact_transfer_entropy": (lambda v: exact_transfer_entropy(copy_spec(2), v), "Renyi order"),
    "noisy_copy_spec": (lambda v: noisy_copy_spec(2, v).to_json(), "fidelity"),
    "EffectiveResult.raw": (lambda v: EffectiveResult(v, (0.25,), 10).fields(), "raw"),
    "EffectiveResult.replicas": (lambda v: EffectiveResult(0.5, (0.25, v), 10).replicas,
                                 "replicas"),
}


@pytest.mark.parametrize("value", [
    "1.5", True, b"2", [1.5], None, 1 + 0j, 10**400, np.nan, np.inf,
], ids=["text", "bool", "bytes", "list", "none", "complex", "past-float", "nan", "inf"])
@pytest.mark.parametrize("entry", list(REAL_ARGUMENTS))
def test_every_real_argument_is_refused_by_one_rule(entry, value):
    """Each order, the copy fidelity and each value of an `EffectiveResult` are
    refused by `errors._real`, naming the argument, where text, bools and bytes
    were read as numbers and the rest died with a TypeError or an OverflowError
    (or, in an `EffectiveResult`, were kept as they came)."""
    call, name = REAL_ARGUMENTS[entry]
    if value == 10**400:
        message = f"{name} is past the float range"
    elif isinstance(value, float):
        message = f"{name} must be finite, got {value!r}"
    else:
        message = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [
    1, 0.75, np.float32(0.75), np.float64(0.75), np.int64(1), Fraction(3, 4),
], ids=["int", "float", "float32", "float64", "int64", "fraction"])
@pytest.mark.parametrize("entry", list(REAL_ARGUMENTS))
def test_every_real_argument_takes_any_real_number(entry, value):
    """Python and numpy integers and floats and a Fraction are read as their float."""
    call, _ = REAL_ARGUMENTS[entry]
    assert call(value) == call(float(value))


PROBABILITY_ARRAYS = {
    "probability array": (DiscreteDistribution, [0.25, 0.75]),
    "joint probability array": (JointDistribution, [[0.25, 0.25], [0.125, 0.375]]),
    "source_transition": (lambda a: CoupledMarkovSpec(2, a, np.full((2, 2, 2), 0.5)),
                          [[0.5, 0.5], [0.25, 0.75]]),
    "target_transition": (lambda a: CoupledMarkovSpec(2, np.full((2, 2), 0.5), a),
                          [[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.5, 0.5]]]),
}


def spoiled(cells, value, add=False):
    """`cells` with the first distribution's last cell set to `value`, or raised by it."""
    arr = np.array(cells, dtype=object)
    at = (0,) * (arr.ndim - 1) + (-1,)
    arr[at] = arr[at] + value if add else value
    return arr.tolist()


@pytest.mark.parametrize("spoil, message", [
    (-0.25, "holds a negative probability"),
    (np.nan, "must be finite, got the non-finite value nan at position "),
    ("x", "must be a non-empty one-dimensional array of numbers, got shape "),
], ids=["negative", "nan", "text"])
@pytest.mark.parametrize("entry", list(PROBABILITY_ARRAYS))
def test_every_probability_array_is_refused_by_one_rule(entry, spoil, message):
    """Distributions, joints and each row of a process's transition law are refused
    by `errors._probabilities`, naming the array."""
    build, cells = PROBABILITY_ARRAYS[entry]
    name = entry.removeprefix("joint ")
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} {message}')}"):
        build(spoiled(cells, spoil))


@pytest.mark.parametrize("entry", list(PROBABILITY_ARRAYS))
def test_every_probability_array_has_one_normalization_tolerance(entry):
    """A distribution or row off 1 by 2e-12 is refused and one off by 5e-13 accepted."""
    build, cells = PROBABILITY_ARRAYS[entry]
    name = entry.removeprefix("joint ")
    message = f"^{name} has a distribution off 1 by [12][.0-9]*e-12, past the tolerance 1e-12$"
    with pytest.raises(ValidationError, match=message):
        build(spoiled(cells, 2e-12, add=True))
    build(spoiled(cells, 5e-13, add=True))


def test_csv_timestamps_past_int64_are_refused_by_the_integer_rule(tmp_path):
    # numpy reads the first column as uint64, and the others, which mix int64
    # stamps with one past it, as floats or as Python objects
    path = tmp_path / "p.csv"
    for stamps, past in (((2**63, 2**63 + 1), 2**63 + 1), ((1, 2**63), 2**63),
                         ((-1, 2**63), 2**63), ((1, -(2**63) - 1), -(2**63) - 1),
                         ((1, 2**64), 2**64)):
        rows = "".join(f"{stamp},1.0\n" for stamp in stamps)
        path.write_text(f"timestamp,A\n{rows}", encoding="utf-8")
        message = f"{path}: the timestamps of column 'A' must fit in int64, got {past}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_csv(path)


@pytest.mark.parametrize("given, build, field", [
    (np.array([0, 1, 2]), lambda a: SymbolSeries(a, 3), "symbols"),
    (np.array([0.0, 1.0, 2.0]), lambda a: SymbolSeries(a, 3), "symbols"),
    (np.array([1, 2, 3]), lambda a: RawSeries("A", a, [1.0, 2.0, 3.0]), "timestamps"),
    (np.array([1.0, 2.0, 3.0]), lambda a: RawSeries("A", [1, 2, 3], a), "values"),
    (np.array([0, 3]), lambda a: WordDistribution(a, [1, 1], 2, 2, 1, 1), "codes"),
    (np.array([2, 1]), lambda a: WordDistribution([0, 3], a, 2, 2, 1, 1), "counts"),
    (np.array([0.25, 0.75]), DiscreteDistribution, "probs"),
    (np.array([[0.1, 0.2], [0.3, 0.4]]), JointDistribution, "probs"),
    (np.array([[0.2, 0.8], [0.6, 0.4]]),
     lambda a: CoupledMarkovSpec(2, a, np.full((2, 2, 2), 0.5)), "source_transition"),
    (np.array([[np.nan, 0.1], [0.2, np.nan]]), lambda a: FlowMatrix(("A", "B"), a), "values"),
    (np.array([[0.0, 0.1], [-0.1, 0.0]]), lambda a: NetFlowMatrix(("A", "B"), a), "values"),
], ids=["symbols", "float-symbols", "timestamps", "values", "codes", "counts", "probs",
        "joint-probs", "transition", "flow", "net-flow"])
def test_records_hold_read_only_copies(given, build, field):
    """Writing to the caller's array leaves the record as validated, and the
    caller's array stays writable."""
    held = getattr(build(given), field)
    before = held.copy()
    given.flat[1] = given.flat[0]
    np.testing.assert_array_equal(held, before)
    assert given.flags.writeable and not held.flags.writeable


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
