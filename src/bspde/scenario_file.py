"""Scenario files: section-headed key=value text with embedded expressions.

A file has sections ``[problem]`` (d, d1, T, L, K, kappa, form),
``[coefficients]`` (a, b, c, sigma, nu), ``[data]`` (F, phi), and optional
``[discretization]`` / ``[run]``.  Coefficient values are numbers, matrix
literals ``[[...],[...]]`` whose entries are expressions, or single
expressions over ``t, x1..xd, w1..wd1``; any reference to a ``w`` variable
makes the field adapted.  A scalar where a matrix is expected means that
multiple of the identity pattern (diagonal fill), the usual shorthand for
isotropic coefficients.
"""

from __future__ import annotations

import configparser
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ScenarioValidationError, StructuralError
from .expr import evaluate, parse_expression, variables_in
from .scenario import CoefficientField, ModulusOfContinuity, Scenario, validate

PROBLEM_KEYS = ("d", "d1", "T", "L", "K", "kappa", "form")
COEFFICIENT_KEYS = ("a", "b", "c", "sigma", "nu")
DATA_KEYS = ("F", "phi")
DISCRETIZATION_KEYS = ("modes", "steps", "branching", "paths", "seed")


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
    """Command options from the ``[run]`` section; flags override these."""

    theta: float = 1.0
    tol: float = 1e-6
    options: dict | None = None  # remaining keys, verbatim

    def option(self, key: str, default=None):
        return (self.options or {}).get(key, default)


def _value_positions(text: str) -> dict:
    """(line, column) of the value of every ``key = value`` entry, by
    ``(section, key)``; ``configparser`` keeps no positions."""
    positions, section = {}, None
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
        elif "=" in stripped and not stripped.startswith(";"):
            key, value = line.split("=", 1)
            column = len(line) - len(value.lstrip()) + 1
            positions.setdefault((section, key.strip()), (number, column))
    return positions


def _num(section: str, key: str, raw: str, cast, positions: dict):
    try:
        return cast(raw)
    except ValueError:
        raise ParseError(f"bad value for {section}.{key}: {raw!r}",
                         *positions.get((section, key), (1, 1))) from None


def _split_top(text: str) -> list:
    """Split on commas not nested inside parentheses or brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_matrix_literal(text: str) -> list:
    """Nested entry strings from ``[a, b]`` or ``[[a, b], [c, d]]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("not a bracketed literal")
    inner = text[1:-1].strip()
    if inner.startswith("["):
        rows = []
        for chunk in _split_top(inner):
            chunk = chunk.strip()
            if not (chunk.startswith("[") and chunk.endswith("]")):
                raise ValueError(f"malformed matrix row: {chunk!r}")
            rows.append([c.strip() for c in _split_top(chunk[1:-1])])
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("ragged matrix literal")
        return rows
    return [c.strip() for c in _split_top(inner)]


def _entry_asts(entries, shape, variables, where):
    """Parse a nested list of entry strings into an array of ASTs."""
    arr = np.empty(shape, dtype=object)
    flat_entries = np.asarray(entries, dtype=object)
    if flat_entries.shape != shape:
        raise ParseError(
            f"{where}: literal has shape {flat_entries.shape}, expected {shape}", 1, 1)
    for idx in np.ndindex(shape) if shape else [()]:
        src = flat_entries[idx] if shape else entries
        try:
            arr[idx] = parse_expression(str(src), variables)
        except ParseError as e:
            raise ParseError(f"{where}: {e.bare_message}", e.line, e.column) from None
    return arr


def _make_evaluator(asts, shape, dim_x, uses_w):
    flat = [asts[idx] for idx in (np.ndindex(shape) if shape else [()])]

    def _eval(t, X, history=None):
        env = {"t": t}
        for i in range(dim_x):
            env[f"x{i + 1}"] = X[:, i]
        if history is not None:
            for k, wk in enumerate(np.atleast_1d(history.w)):
                env[f"w{k + 1}"] = wk
        cols = [np.broadcast_to(np.asarray(evaluate(a, env), dtype=float), (len(X),))
                for a in flat]
        out = np.stack(cols, axis=-1)
        return out.reshape((len(X),) + shape) if shape else out[:, 0]

    if uses_w:
        return lambda t, X, history: _eval(t, X, history)
    return lambda t, X: _eval(t, X)


def _build_field(name: str, raw: str, shape: tuple, dim_x: int,
                 variables) -> CoefficientField:
    raw = raw.strip()
    where = f"[{('data' if name in DATA_KEYS else 'coefficients')}] {name}"
    if raw.startswith("["):
        try:
            entries = _parse_matrix_literal(raw)
        except ValueError as e:
            raise ParseError(f"{where}: {e}", 1, 1) from None
        asts = _entry_asts(entries, shape, variables, where)
    else:
        try:
            ast = parse_expression(raw, variables)
        except ParseError as e:
            raise ParseError(f"{where}: {e.bare_message}", e.line, e.column) from None
        asts = np.empty(shape, dtype=object)
        if shape == ():
            asts = np.empty((), dtype=object)
            asts[()] = ast
        elif len(shape) == 1:
            for i in range(shape[0]):
                asts[i] = ast
        else:  # diagonal fill: expr * identity pattern
            zero = parse_expression("0", variables)
            for idx in np.ndindex(shape):
                asts[idx] = ast if idx[0] == idx[-1] else zero
    names = set()
    for idx in np.ndindex(shape) if shape else [()]:
        names |= variables_in(asts[idx] if shape else asts[()])
    uses_w = any(n.startswith("w") for n in names)
    t_free = "t" not in names
    if not names:  # constant fold
        vals = np.empty(shape if shape else ())
        for idx in np.ndindex(shape) if shape else [()]:
            node = asts[idx] if shape else asts[()]
            vals[idx] = float(evaluate(node, {}))
        return CoefficientField.constant(vals, shape)
    fn = _make_evaluator(asts, shape, dim_x, uses_w)
    if uses_w:  # the evaluator reads the history only through history.w
        return CoefficientField.adapted(fn, shape, markov=True, t_free=t_free)
    return CoefficientField.of_tx(fn, shape, t_free=t_free)


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
    return load_scenario_text(text, strict=strict)


def load_scenario_text(text: str, strict: bool = False):
    parser = _read_ini(text)
    positions = _value_positions(text)
    for section in ("problem", "coefficients", "data"):
        if not parser.has_section(section):
            raise ParseError(f"missing required section [{section}]", 1, 1)

    prob = dict(parser.items("problem"))
    unknown = set(prob) - set(PROBLEM_KEYS)
    if unknown:
        raise ParseError(f"unknown [problem] keys: {sorted(unknown)}", 1, 1)
    for key in ("d", "d1", "T", "L", "K", "kappa"):
        if key not in prob:
            raise ParseError(f"[problem] is missing {key!r}", 1, 1)
    d = _num("problem", "d", prob["d"], int, positions)
    d1 = _num("problem", "d1", prob["d1"], int, positions)
    horizon = _num("problem", "T", prob["T"], float, positions)
    halfwidth = _num("problem", "L", prob["L"], float, positions)
    bound_K = _num("problem", "K", prob["K"], float, positions)
    kappa = _num("problem", "kappa", prob["kappa"], float, positions)
    form = prob.get("form", "non_divergence").strip()

    variables = {"t"} | {f"x{i + 1}" for i in range(d)} | {f"w{k + 1}" for k in range(d1)}
    shapes = {"a": (d, d), "b": (d,), "c": (), "sigma": (d, d1), "nu": (d1,),
              "F": (), "phi": ()}

    coeffs = dict(parser.items("coefficients"))
    unknown = set(coeffs) - set(COEFFICIENT_KEYS)
    if unknown:
        raise ParseError(f"unknown [coefficients] keys: {sorted(unknown)}", 1, 1)
    if "a" not in coeffs:
        raise ParseError("[coefficients] must declare a", 1, 1)
    data = dict(parser.items("data"))
    unknown = set(data) - set(DATA_KEYS)
    if unknown:
        raise ParseError(f"unknown [data] keys: {sorted(unknown)}", 1, 1)
    if "phi" not in data:
        raise ParseError("[data] must declare phi", 1, 1)

    sources = {}
    fields = {}
    for name in COEFFICIENT_KEYS + DATA_KEYS:
        raw = coeffs.get(name) if name in COEFFICIENT_KEYS else data.get(name)
        if raw is None:
            fields[name] = CoefficientField.zero(shapes[name])
            continue
        sources[name] = raw.strip()
        fields[name] = _build_field(name, raw, shapes[name], d, variables)

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
        warnings.warn(msg, stacklevel=2)

    disc_kwargs = {}
    if parser.has_section("discretization"):
        disc = dict(parser.items("discretization"))
        unknown = set(disc) - set(DISCRETIZATION_KEYS)
        if unknown:
            raise ParseError(f"unknown [discretization] keys: {sorted(unknown)}", 1, 1)
        for key in DISCRETIZATION_KEYS:
            if key in disc:
                disc_kwargs[key] = _num("discretization", key, disc[key], int, positions)
    disc_config = DiscretizationConfig(**disc_kwargs)

    run_kwargs = {"options": {}}
    if parser.has_section("run"):
        for key, val in parser.items("run"):
            if key == "theta":
                run_kwargs["theta"] = _num("run", "theta", val, float, positions)
            elif key == "tol":
                run_kwargs["tol"] = _num("run", "tol", val, float, positions)
            else:
                run_kwargs["options"][key] = val.strip()
    run_config = RunConfig(**run_kwargs)
    return scenario, disc_config, run_config


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
        if field_.kind == "deterministic_const":
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
        lines += ["", "[run]", f"theta = {run.theta!r}", f"tol = {run.tol!r}"]
        for key, val in sorted((run.options or {}).items()):
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
