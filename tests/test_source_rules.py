"""Rules on the package source, checked by parsing ``src/bspde`` with ``ast``."""

import ast
from pathlib import Path

from bspde.scenario import FIELD_KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "bspde"

# the dense oracle is the independent reference and walks nodes on purpose
PER_NODE_ALLOWED = {"oracle.py"}
# the scenario layer builds fields from callables; every other module derives
# them with ``CoefficientField.derived``, which decides their kind
FIELD_BUILDERS = {"scenario.py", "scenario_file.py"}


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


def adapted_calls_without_markov(source: str) -> list[int]:
    """Line numbers of ``CoefficientField.adapted(...)`` calls without ``markov=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "adapted"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "CoefficientField"
                and not any(k.arg == "markov" for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_detector_finds_adapted_calls_without_markov():
    source = (
        "f = CoefficientField.adapted(fn, shape)\n"
        "g = CoefficientField.adapted(fn, shape, markov=src.markov)\n"
        "h = CoefficientField.adapted(\n    fn, shape, **kw)\n"
        "k = other.adapted(fn, shape)\n"
    )
    assert adapted_calls_without_markov(source) == [1, 3]


def test_every_adapted_field_in_the_package_declares_markov():
    # a derived field that kept the default would silently fall back to
    # evaluating once per tree node instead of once per Wiener state
    assert package_findings(adapted_calls_without_markov) == {}


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
    )
    assert calls_to(source, {"adapted", "of_tx"}, "CoefficientField") == [1, 2]
    assert calls_to(source, {"history", "histories"}) == [6, 7]


def test_only_the_scenario_layer_builds_fields_from_callables():
    # a derived field built by hand could get its kind or ``markov`` wrong
    assert package_calls({"adapted", "of_tx"}, FIELD_BUILDERS, "CoefficientField") == {}


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


def field_kind_comparisons(source: str) -> list[int]:
    """Line numbers of comparisons with a ``FIELD_KINDS`` string as an operand
    (or inside a tuple, list or set operand)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op in list(operands):
            if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                operands += op.elts
        if any(isinstance(op, ast.Constant) and op.value in FIELD_KINDS
               for op in operands):
            lines.append(node.lineno)
    return lines


def test_detector_finds_field_kind_comparisons():
    source = (
        'if field_.kind == "deterministic_const":\n    pass\n'
        'ok = f.kind != "adapted_fn_of_txW"\n'
        'both = kind in ("deterministic_fn_of_tx", "other")\n'
        'if f.is_constant:\n    pass\n'
        'name = "deterministic_const"\n'
        'same = kind == other_kind\n'
    )
    assert field_kind_comparisons(source) == [1, 3, 4]


def test_only_the_scenario_module_tests_field_kinds():
    # every other module asks ``is_constant``, ``is_deterministic`` or ``is_zero``
    assert package_findings(field_kind_comparisons, {"scenario.py"}) == {}


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
# the regression's one least-squares fit; the coercivity probe fits its two
# constants on its own
FITS = {"qr", "lstsq"}
FIT_SITES = {"_fit", "coercivity_probe"}


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


def test_regressions_are_fitted_only_in_fit():
    # a second fit beside the stacked QR would fit each target on its own again
    assert package_findings(lambda source: linalg_calls_outside(source, FITS, FIT_SITES)) == {}


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
    # every float is printed by _fmt; the fields.csv writer reads its layout
    # off _fmt's text and falls back to _fmt, so no second template can drift
    assert package_findings(lambda source: lines_outside(source, {"_fmt"},
                                                         holds_precision)) == {}
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    assert len(lines_outside(cli, set(), holds_precision)) == 1
    writer = next(node for node in ast.walk(ast.parse(cli))
                  if isinstance(node, ast.FunctionDef) and node.name == "_fmt_bytes")
    assert calls_named(ast.unparse(writer), "_fmt")
