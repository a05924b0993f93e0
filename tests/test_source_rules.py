"""Rules on the package source, checked by parsing ``src/bspde`` with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bspde"

# the dense oracle is the independent reference and walks nodes on purpose
PER_NODE_ALLOWED = {"oracle.py"}


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
    found = {path.name: per_node_loops(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name not in PER_NODE_ALLOWED}
    assert {name: lines for name, lines in found.items() if lines} == {}


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
    found = {path.name: adapted_calls_without_markov(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
