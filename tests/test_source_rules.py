"""Rules on the package source, checked by parsing ``src/bspde`` with ``ast``."""

import ast
import inspect
from pathlib import Path

import bspde
from bspde.scenario import FORMS

SRC = Path(__file__).resolve().parents[1] / "src" / "bspde"
BENCH = Path(__file__).resolve().parents[1] / "bench"

# the dense oracle is the independent reference and walks nodes on purpose
PER_NODE_ALLOWED = {"oracle.py"}
# the scenario layer builds fields from callables; every other module derives
# them with ``CoefficientField.derived``, which decides what they read
FIELD_BUILDERS = {"scenario.py", "scenario_file.py"}
# the field states what it reads and the engine groups a level's nodes by it;
# every other module asks ``is_deterministic``, ``markov`` or ``t_free``
READS_TESTERS = {"scenario.py", "solver.py"}
# the assembly states each form's operator; the scenario validates its form
FORM_READERS = {"space.py", "scenario.py"}


def package_findings(rule, allowed: set = frozenset()) -> dict:
    """``rule(source)`` line numbers per package module outside ``allowed``,
    for the modules where it found any.  A missing source tree fails."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package source under {SRC}"
    found = {path.name: rule(path.read_text(encoding="utf-8"))
             for path in paths if path.name not in allowed}
    return {name: lines for name, lines in found.items() if lines}


def per_node_loops(source: str) -> list[int]:
    """Line numbers of ``for`` loops (or comprehensions) over ``range(<...>.n_nodes)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            continue
        it = node.iter
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range"
                and any(isinstance(a, ast.Attribute) and a.attr == "n_nodes"
                        for a in it.args)):
            lines.append(it.lineno)
    return lines


def test_detector_finds_node_loops():
    source = (
        "for node in range(tree.levels[level].n_nodes):\n    pass\n"
        "rows = [f(i) for i in range(0, lev.n_nodes)]\n"
        "for level in range(tree.n_steps):\n    pass\n"
        "for node, row in enumerate(levels[k]):\n    pass\n"
    )
    assert per_node_loops(source) == [1, 3]


def test_no_per_node_loops_outside_the_oracle():
    # every reader of a solved pair works a whole tree level at a time
    assert package_findings(per_node_loops, PER_NODE_ALLOWED) == {}


def field_calls_without_reads(source: str) -> list[int]:
    """Line numbers of calls that build a field from a callable without
    ``reads=``: ``CoefficientField(...)``, or ``cls(...)`` in the body of
    ``class CoefficientField``, given ``fn=`` or a second positional argument."""
    tree = ast.parse(source)
    scopes = [(tree, "CoefficientField")] + [
        (body, "cls") for body in ast.walk(tree)
        if isinstance(body, ast.ClassDef) and body.name == "CoefficientField"]
    lines = []
    for scope, name in scopes:
        for node in ast.walk(scope):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name
                    and ("fn" in {k.arg for k in node.keywords} or len(node.args) > 1)
                    and not any(k.arg == "reads" for k in node.keywords)):
                lines.append(node.lineno)
    return lines


def test_detector_finds_field_calls_without_reads():
    source = (
        "f = CoefficientField(shape, fn=fn)\n"
        "g = CoefficientField(shape, fn=fn, reads=frozenset({'w'}))\n"
        "h = CoefficientField(\n    shape, fn)\n"
        "k = CoefficientField(shape, value=v)\n"
        "class CoefficientField:\n"
        "    def of(cls, fn):\n        return cls((), fn=fn)\n"
        "    def const(cls, v):\n        return cls((), value=v, reads=frozenset())\n"
        "p = cls(t, dt, incs, w)\n"
    )
    assert field_calls_without_reads(source) == [1, 3, 8]


def test_every_field_the_package_builds_from_a_callable_declares_reads():
    # a field that kept the default would silently fall back to evaluating
    # once per tree node and level instead of once per Wiener state
    assert package_findings(field_calls_without_reads) == {}


def dataclass_fields(source: str, name: str) -> list[str]:
    """The annotated fields of ``class <name>``, in order."""
    return [node.target.id for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) and cls.name == name
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def batched_twins(source: str) -> list[int]:
    """Line numbers of a ``batch`` keyword, parameter, attribute or class
    field: a second read of a field beside its one ``fn``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "batch":
            lines.add(node.value.lineno)
        elif isinstance(node, ast.arg) and node.arg == "batch":
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "batch":
            lines.add(node.lineno)
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id == "batch"):
            lines.add(node.lineno)
    return sorted(lines)


def test_detector_finds_batched_twins_and_lists_dataclass_fields():
    source = (
        "class CoefficientField:\n"
        "    shape: tuple\n"
        "    fn: Callable | None = None\n"
        "    batch: Callable | None = None\n"
        "    def derived(cls, fn, *inputs, batch=None):\n"
        "        return cls(fn=fn,\n                   batch=batch)\n"
        "out = field_.batch(t, X, W)\n"
        "rows = f.evaluate_states(t, X, W)\n"
        "batched = 3\n"
        "class Other:\n    value: int\n"
    )
    assert dataclass_fields(source, "CoefficientField") == ["shape", "fn", "batch"]
    assert dataclass_fields(source, "Other") == ["value"]
    assert batched_twins(source) == [4, 5, 7, 8]


def test_detector_finds_per_state_reads():
    source = (
        "def adapted(fn):\n"
        "    return [fn(t, X, h) for h in hists]\n"
        "def evaluate_states(self, states):\n"
        "    rows = [self.evaluate(t, X, h) for h in states]\n"
        "    for w in W:\n        out = self.fn(t, X,\n                      w)\n"
        "    one = self.fn(t, X, W)\n"
        "    ws = [h.w for h in states]\n"
        "    vals = [evaluate(a, env) for a in asts]\n"
    )
    assert per_state_reads(source) == [4, 6]


def test_a_field_has_one_read():
    # ``fn(t, X, states)`` reads any k states: a batched twin beside it would
    # have to agree with it bit for bit, and every derived field be written twice
    source = (SRC / "scenario.py").read_text(encoding="utf-8")
    assert dataclass_fields(source, "CoefficientField") == ["shape", "fn", "value", "reads"]
    assert package_findings(batched_twins) == {}
    # ``adapted`` alone reads a one-state library callable state by state;
    # the dense oracle reads one history per node on purpose
    assert package_findings(per_state_reads, PER_NODE_ALLOWED) == {}


def per_state_reads(source: str) -> list[int]:
    """Line numbers of calls ``fn(...)``, ``<x>.fn(...)`` or ``<x>.evaluate(...)``
    inside a ``for`` loop or a comprehension, outside functions named
    ``adapted``: a field read one state after the other."""
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    lines = []

    def visit(node, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == "adapted":
                continue
            func = getattr(child, "func", None)
            if in_loop and isinstance(child, ast.Call) and (
                    (isinstance(func, ast.Name) and func.id == "fn")
                    or (isinstance(func, ast.Attribute) and func.attr in ("fn", "evaluate"))):
                lines.append(child.lineno)
            visit(child, in_loop or isinstance(child, loops))
    visit(ast.parse(source), False)
    return sorted(lines)


def calls_to(source: str, attrs: set, receiver: str | None = None) -> list[int]:
    """Line numbers of calls ``<x>.<attr>(...)`` with ``attr`` in ``attrs``
    (and ``x`` the name ``receiver``, when given)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in attrs
                and (receiver is None or (isinstance(node.func.value, ast.Name)
                                          and node.func.value.id == receiver))):
            lines.append(node.lineno)
    return lines


def package_calls(attrs: set, allowed: set, receiver: str | None = None) -> dict:
    """Such calls per package module outside ``allowed``."""
    return package_findings(lambda source: calls_to(source, attrs, receiver), allowed)


def test_detector_finds_field_constructors_and_history_walks():
    source = (
        "f = CoefficientField.adapted(fn, shape, markov=True)\n"
        "g = CoefficientField.of_tx(\n    fn, shape)\n"
        "h = CoefficientField.derived(fn, shape, f, g)\n"
        "k = other.of_tx(fn)\n"
        "hist = tree.history(level, node)\n"
        "hists = fields.histories(level)\n"
        "w = hist.history\n"
        "m = CoefficientField(shape, fn=fn, reads=frozenset())\n"
    )
    assert field_builders(source) == [1, 2, 9]
    assert calls_to(source, {"history", "histories"}) == [6, 7]


def field_builders(source: str) -> list[int]:
    """Line numbers of ``CoefficientField.adapted(...)``, ``.of_tx(...)`` and
    ``CoefficientField(...)`` calls."""
    return sorted(calls_to(source, {"adapted", "of_tx"}, "CoefficientField") + [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "CoefficientField"])


def test_only_the_scenario_layer_builds_fields_from_callables():
    # a derived field built by hand could get what it reads wrong
    assert package_findings(field_builders, FIELD_BUILDERS) == {}


def test_no_history_walks_outside_the_oracle():
    # every field read goes through ``LevelFields.level_map``
    assert package_calls({"history", "histories"}, PER_NODE_ALLOWED) == {}


def unused_imports(source: str) -> list[int]:
    """Line numbers of module-level imports whose name the module never reads.

    ``from __future__`` imports and lines marked ``# noqa: F401`` are exempt.
    """
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    text = source.splitlines()
    lines = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in text[node.lineno - 1]):
            continue
        bound = [(a.asname or a.name).split(".")[0] for a in node.names]
        if any(name not in used for name in bound):
            lines.append(node.lineno)
    return lines


def test_detector_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "from .errors import Kept  # noqa: F401\n"
        "x: np.ndarray = os.sep\n"
        "@dataclass\nclass A:\n    pass\n"
    )
    assert unused_imports(source) == [4]


def test_no_unused_imports_in_the_package():
    # ``__init__.py`` imports in order to re-export
    assert package_findings(unused_imports, {"__init__.py"}) == {}


def comparisons(source: str, match) -> list[int]:
    """Line numbers of comparisons with an operand that ``match`` accepts
    (or one inside a tuple, list or set operand)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op in list(operands):
            if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                operands += op.elts
        if any(match(op) for op in operands):
            lines.append(node.lineno)
    return lines


def reads_tests(source: str) -> list[int]:
    """Line numbers of comparisons and set operations with an operand that
    names what a field reads: an attribute ``<x>.reads`` or a name ``reads``."""
    def names_reads(op):
        return ((isinstance(op, ast.Attribute) and op.attr == "reads")
                or (isinstance(op, ast.Name) and op.id == "reads"))
    return sorted(set(comparisons(source, names_reads)) | {
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp) and (names_reads(node.left) or names_reads(node.right))})


def test_detector_finds_tests_of_reads():
    source = (
        'if "w" in field_.reads:\n    pass\n'
        'ok = "t" not in reads\n'
        'both = f.reads & {"w", "history"}\n'
        'if f.is_deterministic and not f.t_free:\n    pass\n'
        'g = replace(f, reads=frozenset())\n'
        'same = reads_of(fields) == other\n'
    )
    assert reads_tests(source) == [1, 3, 4]


def test_only_the_scenario_and_the_engine_test_what_a_field_reads():
    # every other module asks ``is_deterministic``, ``markov``, ``t_free`` or
    # ``is_constant``
    assert package_findings(reads_tests, READS_TESTERS) == {}


def per_level_reads_of(source: str) -> list[int]:
    """Line numbers of ``reads_of(...)`` calls, nested functions included, in
    the methods of ``class LevelFields`` that take a ``level``: those run at
    every level a caller reads."""
    return sorted(
        node.lineno for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef) and cls.name == "LevelFields"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and "level" in {a.arg for a in method.args.args}
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and "reads_of" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_detector_finds_reads_of_in_per_level_methods():
    source = (
        "class LevelFields:\n"
        "    def __init__(self, fields):\n"
        "        self.reads = reads_of(fields)\n"
        "    def level_rows(self, level, fields, fn, key):\n"
        "        reads = reads_of(fields)\n"
        "    def operators(self, level, scenario=None):\n"
        "        def inner():\n"
        "            return scenario_mod.reads_of(coeffs.values())\n"
        "        return self._rows.map_reads(key, fields)\n"
        "class Other:\n"
        "    def level_rows(self, level, fields):\n"
        "        return reads_of(fields)\n"
    )
    assert per_level_reads_of(source) == [5, 8]


def test_what_a_map_reads_is_found_once_not_at_every_level():
    # a map's fields do not change over a solve, so neither does what they read
    source = (SRC / "solver.py").read_text(encoding="utf-8")
    assert "class LevelFields" in source and "reads_of(" in source
    assert per_level_reads_of(source) == []


def form_comparisons(source: str) -> list[int]:
    """Line numbers of comparisons with a ``<x>.form`` attribute or a ``FORMS``
    string as an operand."""
    return comparisons(source, lambda op: (isinstance(op, ast.Attribute) and op.attr == "form")
                       or (isinstance(op, ast.Constant) and op.value in FORMS))


def test_detector_finds_form_comparisons():
    source = (
        'if scenario.form == "non_divergence":\n    pass\n'
        'same = scn.form != other.form\n'
        'div = "divergence" in (kind, "other")\n'
        'if raw not in FORMS:\n    pass\n'
        'scn = s.with_fields(form="divergence")\n'
        'form = scn.form\n'
    )
    assert form_comparisons(source) == [1, 3, 4]


def test_only_the_assembly_compares_forms():
    # each form's operator is stated once, in ``assemble_L`` and ``assemble_M``
    assert package_findings(form_comparisons, FORM_READERS) == {}


def level_maps_without_key(source: str) -> list[int]:
    """Line numbers of ``<x>.level_map(...)`` or ``<x>.level_rows(...)`` calls
    that pass no key: fewer than four positional arguments and no ``key=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("level_map", "level_rows") and len(node.args) < 4
                and not any(k.arg == "key" for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_detector_finds_level_maps_without_key():
    source = (
        "rows = fields.level_map(level, [f], fn)\n"
        "kept = fields.level_map(level, [f], fn, ('grid', f))\n"
        "named = self.level_map(level, coeffs, fn, key=('L', scn))\n"
        "bare = fields.level_map(\n    level, coeffs,\n    lambda t, h: h)\n"
        "def level_map(self, level, fields, fn, key=None):\n    pass\n"
        "rows, index = self.level_rows(level, coeffs, fn)\n"
    )
    assert level_maps_without_key(source) == [1, 4, 9]


def test_every_level_map_in_the_package_names_its_map():
    # an unnamed map runs again at every level even when its fields are t-free
    assert package_findings(level_maps_without_key) == {}


# the engine's one solve and inverse site; the dense oracle solves its own system
SOLVES = {"solve", "inv"}
SOLVE_SITES = {"_level_step"}
SOLVE_ALLOWED = {"oracle.py"}
# the regression's one least-squares fit
FITS = {"qr", "lstsq"}
FIT_SITES = {"_fit"}


def lines_outside(source: str, allowed: set, match) -> list[int]:
    """Line numbers of the ``ast`` nodes that ``match`` accepts, outside the
    functions named in ``allowed``."""
    lines = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name in allowed)
                continue
            if inside:
                continue
            if match(child):
                lines.add(child.lineno)
            visit(child, inside)
    visit(ast.parse(source), False)
    return sorted(lines)


def linalg_calls_outside(source: str, names: set, allowed: set) -> list[int]:
    """Line numbers of ``<x>.linalg.<name>(...)`` calls, and of imports of a
    ``<name>`` from ``numpy.linalg``, for the ``names``, outside the functions
    named in ``allowed``."""
    def match(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in names
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "linalg"):
            return True
        return (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                and any(a.name in names for a in node.names))
    return lines_outside(source, allowed, match)


def test_detector_finds_linalg_solves_outside_the_level_step():
    source = (
        "def _level_step(A, b):\n"
        "    x = np.linalg.solve(A, b)\n"
        "    def inner():\n        return np.linalg.inv(A) @ b\n"
        "def other(A, b):\n"
        "    return np.linalg.solve(A, b)\n"
        "y = numpy.linalg.inv(A)\n"
        "from numpy.linalg import solve\n"
        "z = np.linalg.lstsq(A, b)\n"
        "w = other.solve(A) + other.inv(A)\n"
        "from numpy.linalg import inv, qr\n"
        "def _fit(A):\n"
        "    return np.linalg.qr(A)\n"
    )
    assert linalg_calls_outside(source, SOLVES, {"_level_step"}) == [6, 7, 8, 11]
    assert linalg_calls_outside(source, SOLVES, set()) == [2, 4, 6, 7, 8, 11]
    assert linalg_calls_outside(source, FITS, {"_fit"}) == [9, 11]
    assert linalg_calls_outside(source, FITS, set()) == [9, 11, 13]


def test_linear_systems_are_solved_only_in_the_level_step():
    # a second solve path beside the grouped one would factor per node again
    assert package_findings(lambda source: linalg_calls_outside(source, SOLVES, SOLVE_SITES),
                            SOLVE_ALLOWED) == {}


def linalg_calls_in(source: str, function: str) -> list[str]:
    """``<name>`` of every ``<x>.linalg.<name>(...)`` call inside the functions
    named ``function``, nested functions and lambdas included, in source order."""
    calls = [node for top in ast.walk(ast.parse(source))
             if isinstance(top, ast.FunctionDef) and top.name == function
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Attribute)
             and node.func.value.attr == "linalg"]
    return [c.func.attr for c in sorted(calls, key=lambda c: (c.lineno, c.col_offset))]


def test_detector_lists_the_linalg_calls_of_a_function():
    source = (
        "def _level_step(A, b):\n"
        "    inverse = keep(lambda: np.linalg.inv(A))\n"
        "    x = np.linalg.solve(A, b)\n"
        "    def inner():\n        return numpy.linalg.inv(A) @ b\n"
        "    d = np.linalg.det(A) + other.inv(A)\n"
        "def other(A):\n    return np.linalg.inv(A)\n"
    )
    assert linalg_calls_in(source, "_level_step") == ["inv", "solve", "inv", "det"]
    assert linalg_calls_in(source, "other") == ["inv"]
    assert linalg_calls_in(source, "missing") == []


def test_the_level_step_makes_one_inverse_and_no_solve():
    # one batched inverse of every row, in every row layout: a second inverse
    # or a solve would be a second path through the step
    source = (SRC / "solver.py").read_text(encoding="utf-8")
    assert [name for name in linalg_calls_in(source, "_level_step")
            if name in SOLVES] == ["inv"]


# the calls that group a level's nodes by their row, and the functions that
# apply rows at every use: they read the groups ``LevelOperators.groups`` made
REGROUPS = {"argsort", "split", "unique", "_row_nodes"}
ROW_APPLIERS = {"_level_step", "_generator", "_apply"}


def regroupings(source: str) -> list[int]:
    """Line numbers of calls ``<x>.<name>(...)`` or ``<name>(...)``, for the
    names in ``REGROUPS``, inside the functions named in ``ROW_APPLIERS``,
    nested functions and lambdas included."""
    return sorted({node.lineno for top in ast.walk(ast.parse(source))
                   if isinstance(top, ast.FunctionDef) and top.name in ROW_APPLIERS
                   for node in ast.walk(top) if isinstance(node, ast.Call)
                   and (node.func.attr if isinstance(node.func, ast.Attribute)
                        else getattr(node.func, "id", None)) in REGROUPS})


def test_detector_finds_regroupings_in_the_row_appliers():
    source = (
        "def _level_step(ops, Ep):\n"
        "    groups = _row_nodes(ops)\n"
        "    order = np.argsort(ops.index, kind='stable')\n"
        "    return ops.groups\n"
        "def _generator(ops, p):\n"
        "    parts = np.split(order, cuts)\n"
        "    fn = lambda w: np.unique(w)\n"
        "def _apply(op, vec, groups):\n    return vec @ op[0].T\n"
        "def groups(self):\n    return np.argsort(self.index)\n"
    )
    assert regroupings(source) == [2, 3, 6, 7]


def test_the_row_appliers_read_the_kept_node_groups():
    # a level's nodes are grouped once per operator object, not at every
    # step and every generator call
    assert regroupings((SRC / "solver.py").read_text(encoding="utf-8")) == []


def test_regressions_are_fitted_only_in_fit():
    # a second fit beside the stacked QR would fit each target on its own again
    assert package_findings(lambda source: linalg_calls_outside(source, FITS, FIT_SITES)) == {}


# the one backward level loop; the dense oracle walks its own levels
ONE_LOOP = "_backward"


def backward_walks_outside(source: str, allowed: set) -> list[int]:
    """Line numbers of ``_level_step(...)`` calls and of backward level walks,
    ``range(<start>, -1, -1)``, outside the functions named in ``allowed``."""
    def minus_one(node):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant) and node.operand.value == 1)

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "_level_step" or (name == "range" and len(node.args) == 3
                                         and all(map(minus_one, node.args[1:])))
    return lines_outside(source, allowed, match)


def test_detector_finds_level_steps_and_backward_walks():
    source = (
        "def _backward(tree, p):\n"
        "    for level in range(tree.n_steps - 1, -1, -1):\n"
        "        p = _level_step(ops, p)\n"
        "def solve(tree, p):\n"
        "    for step in range(N - 1, -1, -1):\n"
        "        p = solver._level_step(\n            ops, p)\n"
        "    for lev in range(level, 0, -1):\n        pass\n"
        "    for lev in range(N, -1, 1):\n        pass\n"
        "rows = [f(k) for k in range(n - 1, -1, -1)]\n"
    )
    assert backward_walks_outside(source, {ONE_LOOP}) == [5, 6, 12]
    assert backward_walks_outside(source, set()) == [2, 3, 5, 6, 12]


def test_one_backward_loop_steps_every_level():
    # trees and path ensembles differ only in the ``expect`` they hand the
    # loop: a second loop would need every new scheme written twice
    assert package_findings(lambda source: backward_walks_outside(source, {ONE_LOOP}),
                            PER_NODE_ALLOWED) == {}
    solver = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    loops = [node for node in ast.walk(solver)
             if isinstance(node, ast.FunctionDef) and node.name == ONE_LOOP]
    assert len(loops) == 1
    assert len(backward_walks_outside(ast.unparse(loops[0]), set())) == 2


ENGINE_STEPS = {"_level_step", "_generator"}


def starred_engine_calls(source: str) -> list[int]:
    """Line numbers of ``_level_step(...)`` or ``_generator(...)`` calls that
    take ``*`` or ``**`` arguments."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ENGINE_STEPS and (any(isinstance(a, ast.Starred) for a in node.args)
                                     or any(k.arg is None for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_detector_finds_starred_engine_calls():
    source = (
        "p = _level_step(*blk.operators(step), Ep, q, f, dt, theta, step)\n"
        "p = _level_step(blk.operators(step), Ep, q, f, dt, theta, step)\n"
        "d = solver._generator(*ops, p, q, f)\n"
        "d = _generator(ops, p, q, f, **extra)\n"
        "d = _generator(\n    ops, p, q, f)\n"
        "x = other(*ops)\n"
    )
    assert starred_engine_calls(source) == [1, 3, 4]


def test_no_package_code_unpacks_operators_into_the_engine():
    # a LevelOperators goes to the engine whole: unpacking it brought back
    # per-node operator stacks
    assert package_findings(starred_engine_calls) == {}


def calls_named(source: str, called: str) -> list[int]:
    """Line numbers of ``<called>(...)`` or ``<x>.<called>(...)`` calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == called:
            lines.append(node.lineno)
    return lines


def budget_errors_built(source: str) -> list[int]:
    """Line numbers of ``BudgetError(...)`` or ``<x>.BudgetError(...)`` calls."""
    return calls_named(source, "BudgetError")


def test_detector_finds_budget_errors_built():
    source = (
        "raise BudgetError(f'{n} nodes', count=n, budget=limit)\n"
        "from .errors import BudgetError\n"
        "raise errors.BudgetError(\n    'too big')\n"
        "try:\n    f()\nexcept BudgetError as exc:\n    pass\n"
        "check_bytes(n * 16, 'rows')\n"
    )
    assert budget_errors_built(source) == [1, 3]


def test_only_the_byte_check_refuses_a_size():
    # a module with a limit of its own would bring back a second unit and knob
    assert package_findings(budget_errors_built, {"errors.py"}) == {}
    errors = (SRC / "errors.py").read_text(encoding="utf-8")
    assert len(budget_errors_built(errors)) == 1


def level_operators_built(source: str) -> list[int]:
    """Line numbers of ``LevelOperators(...)`` or ``<x>.LevelOperators(...)`` calls."""
    return calls_named(source, "LevelOperators")


def test_detector_finds_level_operators_built():
    source = (
        "ops = LevelOperators(L, Ms, index)\n"
        "from .solver import LevelOperators\n"
        "ops = solver.LevelOperators(\n    L, Ms)\n"
        "def f(ops: LevelOperators) -> LevelOperators:\n    return ops\n"
        "ok = isinstance(ops, LevelOperators)\n"
    )
    assert level_operators_built(source) == [1, 3]


def test_only_the_solver_builds_level_operators():
    # an operator map built elsewhere would be a second operator form
    assert package_findings(level_operators_built, {"solver.py"}) == {}
    solver = (SRC / "solver.py").read_text(encoding="utf-8")
    assert len(level_operators_built(solver)) == 1


LENGTHS = {"horizon", "domain_halfwidth"}


def length_comparisons_outside(source: str, allowed: set) -> list[int]:
    """Line numbers of comparisons (``<``, ``!=``, ...) and differences
    (``a - b``) that read two ``horizon`` or ``domain_halfwidth`` attributes,
    outside the functions named in ``allowed``."""
    def reads(node):
        return sum(isinstance(n, ast.Attribute) and n.attr in LENGTHS
                   for n in ast.walk(node))

    def match(node):
        return ((isinstance(node, ast.Compare)
                 or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)))
                and reads(node) >= 2)
    return lines_outside(source, allowed, match)


def test_detector_finds_length_comparisons():
    source = (
        "if abs(tree.horizon - scenario.horizon) > 1e-12:\n    pass\n"
        "same = basis.domain_halfwidth != sc.domain_halfwidth\n"
        "gap = ens.horizon - sc.horizon\n"
        "if self.horizon <= 0 or self.domain_halfwidth <= 0:\n    pass\n"
        "T = tree.horizon\n"
        "def _check_inputs(sc, tree, basis):\n"
        "    return tree.horizon == sc.horizon\n"
    )
    assert length_comparisons_outside(source, {"_check_inputs"}) == [1, 3, 4]
    assert length_comparisons_outside(source, set()) == [1, 3, 4, 9]


def test_only_the_input_check_compares_lengths():
    # a solver with a check of its own would let the others drift apart
    found = {path.name: length_comparisons_outside(path.read_text(encoding="utf-8"),
                                                   {"_check_inputs"})
             for path in sorted(SRC.glob("*.py"))}
    assert found and {name: lines for name, lines in found.items() if lines} == {}
    solver = (SRC / "solver.py").read_text(encoding="utf-8")
    assert len(length_comparisons_outside(solver, set())) == 2


def holds_precision(node) -> bool:
    """A string constant, a format spec included, that holds ``.12e``."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and ".12e" in node.value


def test_detector_finds_the_precision_outside_fmt():
    source = (
        "def _fmt(x):\n    return f'{x:.12e}'\n"
        "row = '%d,%d' + ',%.12e' * 3\n"
        "def other(x):\n    return '{:.12e}'.format(x)\n"
        "short = f'{x:.6e}'\n"
    )
    assert lines_outside(source, {"_fmt"}, holds_precision) == [3, 5]
    assert lines_outside(source, set(), holds_precision) == [2, 3, 5]


def test_the_digits_of_a_float_are_stated_once():
    # every float is printed by _fmt, so no second template can drift
    assert package_findings(lambda source: lines_outside(source, {"_fmt"},
                                                         holds_precision)) == {}
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    assert len(lines_outside(cli, set(), holds_precision)) == 1


# the level engine's loop, steps and field provider; the dense oracle, the
# independent reference, calls none of them
ENGINE = ("LevelFields", "_level_step", "_backward", "_generator", "backward_solve",
          "solve_tree", "expectations", "conditional_mean")


def engine_calls(source: str) -> list[int]:
    """Line numbers of calls to a name in ``ENGINE``, bare or as an attribute."""
    return sorted(line for name in ENGINE for line in calls_named(source, name))


def test_detector_finds_engine_calls():
    source = (
        "fields = LevelFields(scenario, tree, basis)\n"
        "Ep, q = tree.expectations(level, p)\n"
        "from .solver import solve_tree\n"
        "for out in solver._backward(\n    tree, scheme):\n    pass\n"
        "p = _level_step(ops, Ep, q)\n"
        "L = assemble_L(scenario, t, hist, basis)\n"
        "x = np.linalg.solve(A, b)\n"
        "ref = solve_tree\n"
    )
    assert engine_calls(source) == [1, 2, 4, 7]


def test_the_oracle_calls_no_engine_step():
    # agreement with the solver checks something only while the oracle reaches
    # the same numbers without the solver's own code
    oracle = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert "def solve_dense" in oracle
    assert engine_calls(oracle) == []


def test_the_oracle_is_one_system_solved_once():
    # one global system in one solve: a level recursion or a kept inverse
    # would restate the engine's path instead of checking it
    oracle = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert len(linalg_calls_outside(oracle, {"solve"}, set())) == 1
    assert linalg_calls_outside(oracle, {"inv"}, set()) == []


# the collocation product (analysis by ``_A``) is stated once for fields and
# once for every operator's term table
ANALYSIS_SITES = {"project", "_operator"}


def analyses(node) -> bool:
    """A product ``<x>._A @ <y>``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.Attribute) and node.left.attr == "_A")


def test_detector_finds_analyses_outside_project_and_operator():
    source = (
        "class SpectralBasis:\n"
        "    def project(self, values):\n        return self._A @ values\n"
        "def _operator(basis, terms):\n    part = basis._A @ body\n"
        "def assemble_L(scenario, basis):\n"
        "    L = basis._A @ low\n"
        "    L += mult[:, None] * (basis._A @ flux)\n"
        "    S = basis._S @ u\n"
        "    B = A @ basis._A\n"
    )
    assert lines_outside(source, ANALYSIS_SITES, analyses) == [7, 8]
    assert lines_outside(source, set(), analyses) == [3, 5, 7, 8]


def test_every_operator_is_formed_by_one_grid_product():
    space = (SRC / "space.py").read_text(encoding="utf-8")
    assert lines_outside(space, ANALYSIS_SITES, analyses) == []
    assert len(lines_outside(space, set(), analyses)) == 2


# the assembly's one form: assemble_L and assemble_M turn the stacked grid
# samples they are given into operator rows through the one term table
ASSEMBLERS = {"assemble_L", "assemble_M"}
FIELD_READS = {"evaluate", "evaluate_states"}


def assembly_forms(source: str) -> list[int]:
    """Line numbers of ``_operator(...)`` calls outside ``assemble_L`` and
    ``assemble_M``, and of field reads (``evaluate``, ``evaluate_states``)
    inside them."""
    def named(names):
        return lambda node: (isinstance(node, ast.Call) and (
            node.func.id if isinstance(node.func, ast.Name)
            else getattr(node.func, "attr", None)) in names)
    reads = set(lines_outside(source, set(), named(FIELD_READS)))
    return sorted(set(lines_outside(source, ASSEMBLERS, named({"_operator"})))
                  | reads - set(lines_outside(source, ASSEMBLERS, named(FIELD_READS))))


def test_detector_finds_second_assembly_forms():
    source = (
        "def assemble_L(scenario, samples, basis):\n"
        "    return _operator(basis, terms(samples))\n"
        "def assemble_M(scenario, samples, basis):\n"
        "    sig = scenario.sigma.evaluate(t, X, history)\n"
        "    return _operator(basis, sig)\n"
        "def assemble_L_at(scenario, t, history, basis):\n"
        "    return space._operator(basis, [])\n"
        "rows = f.evaluate_states(t, X, W)\n"
    )
    assert assembly_forms(source) == [4, 7]


def test_there_is_one_assembly_form():
    # every operator row, of one state or of many, is assembled from stacked
    # samples by the same term table; no per-state twin reads fields itself
    assert package_findings(assembly_forms) == {}
    space = ast.parse((SRC / "space.py").read_text(encoding="utf-8"))
    signatures = {node.name: [a.arg for a in node.args.args] for node in ast.walk(space)
                  if isinstance(node, ast.FunctionDef) and node.name in ASSEMBLERS}
    assert signatures == dict.fromkeys(ASSEMBLERS, ["scenario", "samples", "basis"])


def unguarded_histories(source: str) -> list[int]:
    """Line numbers of ``PathHistory(...)`` calls that no enclosing ``if``
    guards with a test naming ``per_node`` or the string ``"history"``."""
    lines = []

    def guards(node):
        return any((isinstance(n, ast.Name) and n.id == "per_node")
                   or (isinstance(n, ast.Constant) and n.value == "history")
                   for n in ast.walk(node.test))

    def visit(node, guarded):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "PathHistory" and not guarded):
            lines.append(node.lineno)
        if isinstance(node, ast.If):  # its body only, not its else branch
            for child in node.body:
                visit(child, guarded or guards(node))
            for child in [node.test] + node.orelse:
                visit(child, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)
    visit(ast.parse(source), False)
    return sorted(lines)


def test_detector_finds_unguarded_histories():
    source = (
        "if per_node:\n    hists = [PathHistory(t, dt, incs[i], w[i]) for i in nodes]\n"
        "else:\n    reps = [PathHistory(t, dt, incs[i], w[i]) for i in first]\n"
        'if "history" in reads:\n    h = PathHistory(t, dt, incs, w)\n'
        "h = PathHistory(t, dt, incs, w)\n"
        "if level > 0:\n    h = PathHistory.empty(1)\n"
    )
    assert unguarded_histories(source) == [4, 7]


def test_the_engine_builds_histories_only_for_history_reading_groups():
    # a Markov state is its Wiener value: the provider hands fields W rows
    solver = (SRC / "solver.py").read_text(encoding="utf-8")
    assert len(calls_named(solver, "PathHistory")) == 1
    assert unguarded_histories(solver) == []


def text_readers(source: str, reader: str | None = None) -> list[int]:
    """Line numbers of ``configparser`` imports and of calls that split text
    into lines (``.splitlines()``, ``.split("\\n")``) outside the function
    named ``reader``."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == reader for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(m.split(".")[0] == "configparser" for m in modules) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and id(node) not in exempt
                and (node.func.attr == "splitlines" or node.func.attr == "split" and node.args
                     and isinstance(node.args[0], ast.Constant) and node.args[0].value == "\n")):
            lines.append(node.lineno)
    return sorted(lines)


def test_detector_finds_configparser_and_line_splits():
    source = (
        "import configparser\n"
        "from configparser import ConfigParser\n"
        "lines = text.splitlines()\n"
        "head = text.split('\\n', 1)[0]\n"
        "parts = raw.split(',')\n"
        "def _read(text):\n    return text.split('\\n')\n"
    )
    assert text_readers(source) == [1, 2, 3, 4, 7]
    assert text_readers(source, "_read") == [1, 2, 3, 4]


def test_only_the_scenario_reader_splits_scenario_text_into_lines():
    # the layout of a scenario file is stated once, in ``scenario_file._read``
    source = (SRC / "scenario_file.py").read_text(encoding="utf-8")
    assert text_readers(source) and text_readers(source, "_read") == []
    assert package_findings(text_readers, {"scenario_file.py"}) == {}


# every field of the equation is real, and so are its cos/sin coordinates:
# no array of the package holds a complex number
PARTS = {"conj", "conjugate", "real", "imag"}


def complex_arithmetic(source: str) -> list[int]:
    """Line numbers of complex numbers: the ``complex`` type or a numpy
    complex dtype (``np.complex128``), an imaginary literal (``1j``), a
    string naming one (``dtype="complex"``, docstrings included), or a
    conjugate or a real or imaginary part taken (``np.conj``, ``.real``)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        value = node.value if isinstance(node, ast.Constant) else None
        if (name is not None and (name.startswith("complex") or name in PARTS)
                or isinstance(value, complex)
                or isinstance(value, str) and "complex" in value):
            lines.add(node.lineno)
    return sorted(lines)


def test_detector_finds_complex_arithmetic():
    source = (
        "A = np.eye(n, dtype=complex)\n"
        "z = 1j * k\n"
        "y = np.real(np.sum(np.conj(x) * v))\n"
        "w = v.real + u.imag + M.conj().T @ x\n"
        "b = np.empty(n, 'complex128')\n"
        "c = np.complex128(0)\n"
        "ok = np.cos(phase) @ weights + x[..., ::-1]\n"
        "u = coeffs @ S.T\n"
    )
    assert complex_arithmetic(source) == [1, 2, 3, 4, 5, 6]


def test_the_package_has_no_complex_arithmetic():
    assert package_findings(complex_arithmetic) == {}


# a sum over a level: a builtin or numpy reduction, or a matrix product
SUMS = {"sum", "cumsum", "dot", "vdot", "inner", "einsum", "tensordot", "average",
        "mean", "fsum"}


def prob_sums_outside(source: str, allowed: set) -> list[int]:
    """Line numbers of sums (``sum(...)``, ``np.sum(...)``, ``x.sum()``, ``@``
    ...) that read a level's ``prob``, as an attribute or a name ``prob``,
    outside the functions named in ``allowed``."""
    def reads_prob(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "prob"
                   or isinstance(n, ast.Name) and n.id == "prob" for n in ast.walk(node))

    def match(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return reads_prob(node)
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in SUMS and reads_prob(node)
    return lines_outside(source, allowed, match)


def test_detector_finds_prob_sums():
    source = (
        "def _expectation(prob, values):\n"
        "    return float(np.cumsum(prob * values)[-1])\n"
        "e = float(np.sum(tree.levels[k].prob * run))\n"
        "prob = tree.levels[k].prob\n"
        "m = prob @ x\n"
        "t = (prob * x).sum()\n"
        "u = _expectation(tree.levels[k].prob, np.sum(p * q, axis=-1))\n"
        "n = sum(lv.n_nodes for lv in tree.levels)\n"
        "v = np.dot(lv.prob, x)\n"
        "r = np.repeat(prev.prob, c) * np.tile(w, len(prev.prob))\n"
    )
    assert prob_sums_outside(source, {"_expectation"}) == [3, 5, 6, 9]
    assert prob_sums_outside(source, set()) == [2, 3, 5, 6, 9]


def test_a_level_is_averaged_only_by_its_node_order_sum():
    # every expectation over a level adds node after node, in one place, so
    # no audit's last digits depend on which reduction a caller picked
    assert package_findings(lambda source: prob_sums_outside(source, {"_expectation"})) == {}
    solver = (SRC / "solver.py").read_text(encoding="utf-8")
    assert prob_sums_outside(solver, set()) != []


# public names that no command and no benchmark reads: library entry points
PUBLIC_UNREAD = {
    "load_scenario_text",  # load_scenario for scenario text held in memory
}


def names_read(source: str, skip: str | None = None) -> set:
    """Names that ``source`` reads, as names, attributes or imports, outside
    the definition of the function or class ``skip`` and outside annotations,
    which the package never evaluates."""
    tree = ast.parse(source)
    annotations = {id(n.annotation) for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation is not None}
    annotations |= {id(n.returns) for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns}
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if id(child) in annotations or (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and child.name == skip):
                continue
            if isinstance(child, ast.Name):
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
            elif isinstance(child, ast.alias):
                found.add(child.name.split(".")[-1])
            visit(child)
    visit(tree)
    return found


def unread_public(public: dict, sources: dict) -> list[str]:
    """The names of ``public`` (name -> the file that defines it) that no file
    of ``sources`` (file -> source) reads outside the name's own definition."""
    read = set()
    for path, source in sources.items():
        anywhere = names_read(source)
        read |= {name for name, home in public.items() if name in anywhere
                 and (path != home or name in names_read(source, name))}
    return sorted(set(public) - read)


def test_detector_finds_public_names_only_their_definition_reads():
    sources = {
        "a.py": (
            "def run(x: Kind) -> Kind:\n    return helper(x)\n"
            "def helper(x):\n    return helper(x - 1)\n"
            "def lonely(n):\n    return lonely(n - 1)\n"
            "class Kind:\n    kind: Kind\n"
            "class Node:\n    pass\n"
            "def make():\n    return Node()\n"
        ),
        "b.py": "from .a import run\n",
        "bench/run.py": "import bspde\nbspde.a.traced()\n",
    }
    public = {name: "a.py" for name in ("run", "helper", "lonely", "Kind", "Node", "traced")}
    assert unread_public(public, sources) == ["Kind", "lonely"]


def test_every_public_function_and_class_is_read_by_the_package_or_the_benchmark():
    # a public name that only tests read is a test reference: it belongs in
    # tests/oracles.py, not in the package the commands ship
    public = {name: f"{obj.__module__.rsplit('.', 1)[-1]}.py"
              for name in bspde.__all__
              if inspect.isfunction(obj := getattr(bspde, name)) or inspect.isclass(obj)}
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    sources |= {f"bench/{path.name}": path.read_text(encoding="utf-8")
                for path in sorted(BENCH.glob("*.py")) if path.name != "test_bench.py"}
    assert paths and len(sources) > len(paths)
    # an exception that gains a reader leaves the list
    assert unread_public(public, sources) == sorted(PUBLIC_UNREAD)
