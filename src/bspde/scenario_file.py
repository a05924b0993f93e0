"""Scenario files: section-headed key=value text with embedded expressions.

A file has sections ``[problem]`` (d, d1, T, L, K, kappa, form),
``[coefficients]`` (a, b, c, sigma, nu), ``[data]`` (F, phi), and optional
``[discretization]`` / ``[run]``.  Coefficient values are numbers, matrix
literals ``[[...],[...]]`` whose entries are expressions, or single
expressions over ``t, x1..xd, w1..wd1``; any reference to a ``w`` variable
makes the field adapted.  A scalar where a matrix is expected means that
multiple of the identity pattern (diagonal fill), the usual shorthand for
isotropic coefficients.

A :class:`ParseError` carries the line and column in the file: of the bad
value, of the bad token inside an expression or matrix literal, of an
unknown key, or of the header of an unknown section (``[DEFAULT]`` included)
or of a section that misses a required key.
"""

from __future__ import annotations

import configparser
import io
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ScenarioValidationError, StructuralError
from .expr import evaluate, parse_expression, variables_in
from .scenario import (FORMS, CoefficientField, ModulusOfContinuity, Scenario,
                       field_shapes, validate)

PROBLEM_KEYS = ("d", "d1", "T", "L", "K", "kappa", "form")
COEFFICIENT_KEYS = ("a", "b", "c", "sigma", "nu")
DATA_KEYS = ("F", "phi")
DISCRETIZATION_KEYS = ("modes", "steps", "branching", "paths", "seed")
SECTIONS = ("problem", "coefficients", "data", "discretization", "run")


@dataclass(frozen=True)
class DiscretizationConfig:
    """Spatial modes per axis, time steps, and the stochastic discretisation.

    Tree runs use ``branching``; regression runs use ``paths`` (+ ``seed``).
    Both may be present so one file can drive either solver.
    """

    modes: int = 8
    steps: int = 8
    branching: int | None = 2
    paths: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    """Command options from the ``[run]`` section, ``smoothing`` the indices
    of ``mollify-study``; flags override these."""

    theta: float = 1.0
    tol: float = 1e-6
    smoothing: tuple = (4, 8, 16)


def _value_positions(text: str) -> dict:
    """(line, column) of the value of every ``key = value`` entry, by
    ``(section, key)``, and of every section header, by ``(section, None)``,
    else (1, 1); ``configparser`` keeps no positions.  As there, a line
    indented deeper than the key line above it continues that key's value."""
    positions, section, key_indent = defaultdict(lambda: (1, 1)), None, np.inf
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        indent = len(line) - len(line.lstrip())
        if not stripped or stripped.startswith(";") or indent > key_indent:
            continue  # a blank line, a comment or a continued value
        if stripped.startswith("[") and stripped.endswith("]"):
            section, key_indent = stripped[1:-1], np.inf
            positions.setdefault((section, None), (number, 1))
        elif "=" in stripped:
            key, value = line.split("=", 1)
            column = len(line) - len(value.lstrip()) + 1
            positions.setdefault((section, key.strip()), (number, column))
            key_indent = indent
    return positions


def _section(parser, name: str, allowed, required, positions: dict) -> dict:
    """The entries of ``[name]`` (none if it is absent), refused at the line
    of an unknown key or, when a required key is missing, at the header."""
    entries = dict(parser.items(name)) if parser.has_section(name) else {}
    unknown = set(entries) - set(allowed)
    if unknown:
        line = min(positions[(name, key)][0] for key in unknown)
        raise ParseError(f"unknown [{name}] keys: {sorted(unknown)}", line, 1)
    for key in required:
        if key not in entries:
            raise ParseError(f"[{name}] is missing {key!r}" if name == "problem"
                             else f"[{name}] must declare {key}",
                             *positions[(name, None)])
    return entries


def _num(section: str, key: str, raw: str, cast, positions: dict):
    try:
        return cast(raw)
    except ValueError:
        raise ParseError(f"bad value for {section}.{key}: {raw!r}",
                         *positions[(section, key)]) from None


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
    def _eval(t, X, history):
        env = {"t": t}
        for i in range(dim_x):
            env[f"x{i + 1}"] = X[:, i]
        if history is not None:
            for k, wk in enumerate(np.atleast_1d(history.w)):
                env[f"w{k + 1}"] = wk
        cols = [np.broadcast_to(np.asarray(evaluate(a, env), dtype=float), (len(X),))
                for a in asts.flat]
        return np.stack(cols, axis=-1).reshape((len(X),) + shape)

    return _eval


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
        offset = column - 1 + len(src) - len(src.lstrip())  # before the entry's text
        try:
            asts[idx] = parse_expression(src.strip(), variables)
        except ParseError as e:
            raise ParseError(f"{where}: {e.bare_message}", line + e.line - 1,
                             e.column + (offset if e.line == 1 else 0)) from None
    names = set().union(*(variables_in(a) for a in asts.flat))
    if not names:  # constant fold
        vals = [float(evaluate(a, {})) for a in asts.flat]
        return CoefficientField.constant(np.reshape(vals, shape), shape)
    # the evaluator reads the history only through history.w
    reads = frozenset({"t"} & names | {"w" for n in names if n.startswith("w")})
    return CoefficientField(shape, fn=_make_evaluator(asts, shape, dim_x), reads=reads)


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ParseError(str(e).splitlines()[0], getattr(e, "lineno", 1) or 1, 1) from None
    return parser


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
    parser = _read_ini(text)
    positions = _value_positions(text)
    # configparser lets [DEFAULT] keys into every section, and a misspelt
    # section would be read as absent, so every other header is refused
    headers = set(parser.sections()) | {parser.default_section}
    unknown = sorted((pos, name) for (name, key), pos in positions.items()
                     if key is None and name in headers - set(SECTIONS))
    if unknown:
        (line, column), name = unknown[0]
        raise ParseError(f"unknown section [{name}]; expected one of {list(SECTIONS)}",
                         line, column)
    for section in ("problem", "coefficients", "data"):
        if not parser.has_section(section):
            raise ParseError(f"missing required section [{section}]", 1, 1)

    prob = _section(parser, "problem", PROBLEM_KEYS,
                    ("d", "d1", "T", "L", "K", "kappa"), positions)
    d, d1 = (_num("problem", key, prob[key], int, positions) for key in ("d", "d1"))
    horizon, halfwidth, bound_K, kappa = (_num("problem", key, prob[key], float, positions)
                                          for key in ("T", "L", "K", "kappa"))
    form = _num("problem", "form", prob.get("form", "non_divergence").strip(), _form,
                positions)

    variables = {"t"} | {f"x{i + 1}" for i in range(d)} | {f"w{k + 1}" for k in range(d1)}
    shapes = field_shapes(d, d1)
    raws = {**_section(parser, "coefficients", COEFFICIENT_KEYS, ("a",), positions),
            **_section(parser, "data", DATA_KEYS, ("phi",), positions)}

    sources = {name: raws[name].strip() for name in COEFFICIENT_KEYS + DATA_KEYS
               if name in raws}
    fields = {}
    for name in COEFFICIENT_KEYS + DATA_KEYS:
        section = "data" if name in DATA_KEYS else "coefficients"
        fields[name] = (_build_field(name, sources[name], shapes[name], d, variables,
                                     positions[(section, name)])
                        if name in sources else CoefficientField.zero(shapes[name]))

    scenario = Scenario(
        dim_x=d, dim_w=d1, horizon=horizon, domain_halfwidth=halfwidth,
        a=fields["a"], b=fields["b"], c=fields["c"], sigma=fields["sigma"],
        nu=fields["nu"], F=fields["F"], phi=fields["phi"],
        bound_K=bound_K, ellipticity_kappa=kappa, form=form, sources=sources)

    report = validate(scenario, default_modulus(bound_K))
    scenario.validation = report
    if not report.all_ok:
        msg = ("scenario fails the standing-assumption audit "
               f"(superparabolic={report.superparabolic_ok}, "
               f"bounds={report.bounds_ok}, symmetry={report.symmetry_ok}, "
               f"min margin={report.min_margin:.3e})")
        if strict:
            raise ScenarioValidationError(msg, report)
        warnings.warn(msg, stacklevel=3)

    disc = _section(parser, "discretization", DISCRETIZATION_KEYS, (), positions)
    disc_config = DiscretizationConfig(**{
        key: _num("discretization", key, disc[key], int, positions)
        for key in DISCRETIZATION_KEYS if key in disc})

    casts = {"theta": float, "tol": float, "smoothing": _smoothing}
    run = _section(parser, "run", casts, (), positions)
    return scenario, disc_config, RunConfig(**{
        key: _num("run", key, run[key], cast, positions)
        for key, cast in casts.items() if key in run})


def _format_constant(field_: CoefficientField) -> str:
    v = field_.value
    if v.ndim == 0:
        return repr(float(v))
    if v.ndim == 1:
        return "[" + ", ".join(repr(float(x)) for x in v) + "]"
    rows = ("[" + ", ".join(repr(float(x)) for x in row) + "]" for row in v)
    return "[" + ", ".join(rows) + "]"


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
            return _format_constant(field_)
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
                  f"modes = {disc.modes}", f"steps = {disc.steps}"]
        if disc.branching is not None:
            lines.append(f"branching = {disc.branching}")
        if disc.paths is not None:
            lines.append(f"paths = {disc.paths}")
        lines.append(f"seed = {disc.seed}")
    if run is not None:
        lines += ["", "[run]", f"theta = {run.theta!r}", f"tol = {run.tol!r}",
                  "smoothing = " + ",".join(map(str, run.smoothing))]
    return "\n".join(lines) + "\n"
