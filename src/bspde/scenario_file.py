"""Scenario files: section-headed ``key = value`` text with embedded expressions.

A file has sections ``[problem]`` (d, d1, T, L, K, kappa, form),
``[coefficients]`` (a, b, c, sigma, nu), ``[data]`` (F, phi), and optional
``[discretization]`` / ``[run]``.  Coefficient values are numbers, matrix
literals ``[[...],[...]]`` whose entries are expressions, or single
expressions over ``t, x1..xd, w1..wd1``; any reference to a ``w`` variable
makes the field adapted.  A scalar where a matrix is expected means that
multiple of the identity pattern (diagonal fill), the usual shorthand for
isotropic coefficients.

A :class:`ParseError` carries the line and column in the file: of the bad
value, of the bad token inside a value (on whichever of its lines it
stands), of a line that is not ``key = value``, of an unknown or repeated
key, or of the header of an unknown or repeated section (``[DEFAULT]``
included) or of a section that misses a required key.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ScenarioValidationError, StructuralError
from .expr import evaluate, parse_expression, variables_in
from .scenario import (FORMS, CoefficientField, ModulusOfContinuity, Scenario,
                       field_shapes, validate)

COEFFICIENT_KEYS = ("a", "b", "c", "sigma", "nu")
DATA_KEYS = ("F", "phi")
_HEADER = re.compile(r"\[(.+)\]")  # a header line is ``[name]``, with nothing after it
_COMMENT = re.compile(r"(?<!\S)#")  # a ``#`` that opens the line or follows a blank


@dataclass(frozen=True)
class DiscretizationConfig:
    """Spatial modes per axis, time steps, and the stochastic discretisation.

    Tree runs use ``branching``; regression runs use ``paths`` (+ ``seed``).
    Both may be present so one file can drive either solver.
    """

    modes: int = 8
    steps: int = 8
    branching: int = 2
    paths: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    """Command options from the ``[run]`` section, ``smoothing`` the indices
    of ``mollify-study``; flags override these."""

    theta: float = 1.0
    tol: float = 1e-6
    smoothing: tuple = (4, 8, 16)


def _locate(value: str, offset: int, line: int, column: int) -> tuple:
    """(line, column) in the file of ``value[offset]``, for a value that
    starts at (line, column) and whose later lines are kept as written."""
    head = value[:offset]
    newlines = head.count("\n")
    return line + newlines, (offset - head.rfind("\n") if newlines else column + offset)


def _read(text: str) -> tuple:
    """The entries ``{section: {key: value}}`` of scenario text, and the
    (line, column) in the file of every value, by ``(section, key)``, of
    every key, by ``(section, key, "key")``, and of every section header, by
    ``(section, None)``.

    A line whose first non-blank is ``#`` or ``;`` is a comment, as is the
    rest of a line from a ``#`` that opens it or follows a blank, and ``=``
    is the only delimiter.  A line indented deeper than the key line above
    it continues that key's value and is kept as written (a blank or comment
    line as an empty one), so a position inside a value is its place in the
    file; a value starts at its first non-blank character.  A key or a
    section given twice, a key before any section and a line that is not
    ``key = value`` are refused at their line.
    """
    sections, places, value, section, key_indent = {}, {}, [], None, np.inf
    for number, line in enumerate(text.split("\n"), 1):
        content = "" if line.lstrip().startswith(";") else _COMMENT.split(line, 1)[0].rstrip()
        indent = len(content) - len(content.lstrip())
        if not content or indent > key_indent:
            value.append(content)  # a blank is kept too, so the value's lines stay the file's
            continue
        stripped, key_indent, value = content.strip(), indent, []
        header = _HEADER.fullmatch(stripped)
        key, equals, rest = (part.strip() for part in stripped.partition("="))
        if header:  # a section opens with no value to continue
            section, key_indent = header[1], np.inf
            if section in sections:
                raise ParseError(f"section [{section}] is given twice", number, indent + 1)
            sections[section], places[section, None] = {}, (number, indent + 1)
        elif section is None:
            raise ParseError(f"{stripped!r} precedes every section", number, indent + 1)
        elif not (equals and key):
            raise ParseError(f"expected 'key = value', got {stripped!r}", number, indent + 1)
        elif key in sections[section]:
            raise ParseError(f"[{section}] gives {key!r} twice", number, indent + 1)
        else:
            value = sections[section][key] = [rest]
            places[section, key] = (number, len(content) - len(rest) + 1)
            places[section, key, "key"] = (number, indent + 1)
    for section, values in sections.items():
        for key, lines in values.items():
            joined = "\n".join(lines).rstrip()
            start = len(joined) - len(joined.lstrip())
            places[section, key] = _locate(joined, start, *places[section, key])
            values[key] = joined[start:]
    return sections, places


def _smoothing(raw: str) -> tuple:
    """The integers that ``raw`` lists, comma-separated, refused unless there
    is at least one and they are distinct and at least 1."""
    indices = tuple(int(s) for s in raw.split(",") if s.strip())
    if not indices or min(indices) < 1 or len(set(indices)) < len(indices):
        raise ValueError(raw)
    return indices


def _form(raw: str) -> str:
    """``raw``, refused unless it is one of ``FORMS``."""
    if raw not in FORMS:
        raise ValueError(raw)
    return raw


# every section, and the cast that reads each of its keys
_CASTS = {
    "problem": {"d": int, "d1": int, "T": float, "L": float, "K": float,
                "kappa": float, "form": _form},
    "coefficients": dict.fromkeys(COEFFICIENT_KEYS, str),
    "data": dict.fromkeys(DATA_KEYS, str),
    "discretization": dict.fromkeys(("modes", "steps", "branching", "paths", "seed"), int),
    "run": {"theta": float, "tol": float, "smoothing": _smoothing},
}


def _section(entries: dict, places: dict, name: str, required=()) -> dict:
    """The values of ``[name]`` (none if it is absent), each read by its cast
    in ``_CASTS``; refused at an unknown key, at a value its cast refuses or,
    when a required key is missing, at the header.  Only an expression (cast
    ``str``) may go on over more lines: another value is refused where its
    second line starts."""
    section, casts = entries.get(name, {}), _CASTS[name]
    unknown = [key for key in section if key not in casts]
    if unknown:
        raise ParseError(f"unknown [{name}] keys: {sorted(unknown)}",
                         *places[name, unknown[0], "key"])
    for key in required:
        if key not in section:
            raise ParseError(f"[{name}] is missing {key!r}", *places[name, None])
    values = {}
    for key, raw in section.items():
        place = places[name, key]
        try:
            if "\n" in raw and casts[key] is not str:  # at its second line's text
                place = _locate(raw, len(raw) - len(raw[raw.index("\n"):].lstrip()), *place)
                raise ValueError(raw)
            values[key] = casts[key](raw)
        except ValueError:
            raise ParseError(f"bad value for {name}.{key}: {raw!r}", *place) from None
    return values


def _parse_matrix_literal(text: str) -> list:
    """Nested entry strings from ``[a, b]`` or ``[[a, b], [c, d]]``.

    Each entry keeps its offset in ``text`` as leading blanks, so that a
    parse error inside it can be placed in the file.
    """

    def split(lo, hi):  # text[lo:hi] at the commas outside brackets
        parts, depth, start = [], 0, lo
        for i in range(lo, hi):
            if text[i] in "([":
                depth += 1
            elif text[i] in ")]":
                depth -= 1
            elif text[i] == "," and depth == 0:
                parts.append(" " * start + text[start:i])
                start = i + 1
        return parts + [" " * start + text[start:hi]]

    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("not a bracketed literal")
    parts = split(1, len(text) - 1)
    if not parts[0].strip().startswith("["):
        return parts
    rows = []
    for chunk in parts:
        row = chunk.strip()
        if not (row.startswith("[") and row.endswith("]")):
            raise ValueError(f"malformed matrix row: {row!r}")
        lo = len(chunk) - len(chunk.lstrip()) + 1
        rows.append(split(lo, lo + len(row) - 2))
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged matrix literal")
    return rows


def _make_evaluator(asts, shape, dim_x):
    """The entry's read in k states: the ASTs are walked once over the x
    columns, with each ``wk`` a (k, 1) column of the states' Wiener values
    W (k, dim_w); an entry that names no ``wk`` is read in one state."""
    def read(t, X, W):
        env = {"t": t, **{f"x{i + 1}": X[:, i] for i in range(dim_x)},
               **{f"w{k + 1}": W[:, k, None] for k in range(W.shape[1])}}
        lead = (len(W), len(X))
        cols = [np.broadcast_to(np.asarray(evaluate(a, env), dtype=float), lead)
                for a in asts.flat]
        return np.stack(cols, axis=-1).reshape(lead + shape)
    return read


def _build_field(name: str, raw: str, shape: tuple, dim_x: int,
                 variables, position: tuple) -> CoefficientField:
    """The field of entry ``raw``, whose value sits at ``position`` =
    (line, column) of the file; its parse errors carry file positions."""
    line, column = position
    where = f"[{('data' if name in DATA_KEYS else 'coefficients')}] {name}"
    if raw.startswith("["):
        try:
            entries = np.asarray(_parse_matrix_literal(raw), dtype=object)
        except ValueError as e:
            raise ParseError(f"{where}: {e}", line, column) from None
        if entries.shape != shape:
            raise ParseError(f"{where}: literal has shape {entries.shape}, "
                             f"expected {shape}", line, column)
    else:  # a scalar where a matrix is expected fills the diagonal
        entries = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            entries[idx] = raw if len(idx) < 2 or idx[0] == idx[-1] else "0"
    asts = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        src = entries[idx]
        try:
            asts[idx] = parse_expression(src.strip(), variables)
        except ParseError as e:  # the entry starts where its leading blanks end
            at_line, at_column = _locate(raw, len(src) - len(src.lstrip()), line, column)
            raise ParseError(f"{where}: {e.bare_message}", at_line + e.line - 1,
                             e.column + (at_column - 1 if e.line == 1 else 0)) from None
    names = set().union(*(variables_in(a) for a in asts.flat))
    if not names:  # constant fold
        vals = [float(evaluate(a, {})) for a in asts.flat]
        return CoefficientField.constant(np.reshape(vals, shape), shape)
    # the evaluator reads the states' Wiener values alone
    reads = frozenset({"t"} & names | {"w" for n in names if n.startswith("w")})
    return CoefficientField(shape, fn=_make_evaluator(asts, shape, dim_x), reads=reads)


def default_modulus(bound_K: float) -> ModulusOfContinuity:
    """Modulus used when a file declares none: bounded fields oscillate by
    at most 2K, so this is the weakest audit that is still sound."""

    def gamma(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0, 2.0 * bound_K, 0.0)

    return ModulusOfContinuity(gamma)


def load_scenario(path, strict: bool = False):
    """Load ``path`` into ``(Scenario, DiscretizationConfig, RunConfig)``.

    The scenario is validated on a default probe grid and carries the report
    in ``scenario.validation``; a failing report warns by default and raises
    :class:`ScenarioValidationError` under ``strict``.
    """
    with io.open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _load(text, strict)


def load_scenario_text(text: str, strict: bool = False):
    return _load(text, strict)


def _load(text: str, strict: bool):
    """Both public loaders, which call it directly; its warning names their caller."""
    entries, places = _read(text)
    unknown = [name for name in entries if name not in _CASTS]
    if unknown:
        raise ParseError(f"unknown section [{unknown[0]}]; expected one of {list(_CASTS)}",
                         *places[unknown[0], None])
    for section in ("problem", "coefficients", "data"):
        if section not in entries:
            raise ParseError(f"missing required section [{section}]", 1, 1)

    prob = _section(entries, places, "problem", ("d", "d1", "T", "L", "K", "kappa"))
    d, d1 = prob["d"], prob["d1"]
    variables = {"t"} | {f"x{i + 1}" for i in range(d)} | {f"w{k + 1}" for k in range(d1)}
    shapes = field_shapes(d, d1)
    sources = {**_section(entries, places, "coefficients", ("a",)),
               **_section(entries, places, "data", ("phi",))}
    fields = {name: _build_field(name, sources[name], shapes[name], d, variables,
                                 places["data" if name in DATA_KEYS else "coefficients", name])
              if name in sources else CoefficientField.zero(shapes[name])
              for name in COEFFICIENT_KEYS + DATA_KEYS}

    scenario = Scenario(
        dim_x=d, dim_w=d1, horizon=prob["T"], domain_halfwidth=prob["L"],
        a=fields["a"], b=fields["b"], c=fields["c"], sigma=fields["sigma"],
        nu=fields["nu"], F=fields["F"], phi=fields["phi"], bound_K=prob["K"],
        ellipticity_kappa=prob["kappa"], form=prob.get("form", "non_divergence"),
        sources=sources)

    report = validate(scenario, default_modulus(prob["K"]))
    scenario.validation = report
    if not report.all_ok:
        msg = ("scenario fails the standing-assumption audit "
               f"(superparabolic={report.superparabolic_ok}, "
               f"bounds={report.bounds_ok}, symmetry={report.symmetry_ok}, "
               f"min margin={report.min_margin:.3e})")
        if strict:
            raise ScenarioValidationError(msg, report)
        warnings.warn(msg, stacklevel=3)

    return (scenario, DiscretizationConfig(**_section(entries, places, "discretization")),
            RunConfig(**_section(entries, places, "run")))


def serialize_scenario(scenario: Scenario, disc: DiscretizationConfig | None = None,
                       run: RunConfig | None = None) -> str:
    """Render a scenario back to file text.

    Fields keep their original source expressions when the scenario came
    from a file; constant fields are always serialisable.  A function field
    with no retained source cannot be rendered and raises
    :class:`StructuralError`.
    """
    sources = scenario.sources or {}
    lines = [
        "[problem]",
        f"d = {scenario.dim_x}",
        f"d1 = {scenario.dim_w}",
        f"T = {scenario.horizon!r}",
        f"L = {scenario.domain_halfwidth!r}",
        f"K = {scenario.bound_K!r}",
        f"kappa = {scenario.ellipticity_kappa!r}",
        f"form = {scenario.form}",
        "",
        "[coefficients]",
    ]

    def render(name):
        field_ = getattr(scenario, name)
        if name in sources:
            return sources[name]
        if field_.is_constant:
            return repr(field_.value.tolist())
        raise StructuralError(
            f"field {name!r} is a function with no retained source text")

    for name in COEFFICIENT_KEYS:
        if not getattr(scenario, name).is_zero or name == "a":
            lines.append(f"{name} = {render(name)}")
    lines += ["", "[data]"]
    for name in DATA_KEYS:
        if name == "phi" or not getattr(scenario, name).is_zero:
            lines.append(f"{name} = {render(name)}")
    if disc is not None:
        lines += ["", "[discretization]",
                  f"modes = {disc.modes}", f"steps = {disc.steps}",
                  f"branching = {disc.branching}"]
        if disc.paths is not None:
            lines.append(f"paths = {disc.paths}")
        lines.append(f"seed = {disc.seed}")
    if run is not None:
        lines += ["", "[run]", f"theta = {run.theta!r}", f"tol = {run.tol!r}",
                  "smoothing = " + ",".join(map(str, run.smoothing))]
    return "\n".join(lines) + "\n"
