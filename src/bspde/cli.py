"""Command-line driver.

Subcommands: solve, validate, audit, compare, positivity, mollify-study,
regress.  Each takes a scenario file, applies flag overrides, prints a
key=value summary to stdout (stable key order), and optionally writes CSV
records plus ``summary.json`` / ``manifest.json`` into ``--out`` (atomic
write-then-rename).  Exit codes: 0 success, 2 parse, 3 validation,
4 budget, 5 numeric, 6 tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace as dc_replace

import numpy as np

from . import __version__
from .analysis import (MollifierConfig, energy_audit, mollify,
                       positivity_check)
from .errors import (BudgetError, EvalError, NumericError, ParseError,
                     ScenarioValidationError, StructuralError)
from .oracle import solve_dense
from .scenario import validate as validate_scenario
from .scenario_file import default_modulus, load_scenario
from .solver import SchemeConfig, pair_difference, solve_regression, solve_tree
from .space import SpectralBasis
from .wiener import ALLOWED_BRANCHING, build_chain, build_tree, sample_paths

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_NUMERIC = 5
EXIT_TOLERANCE = 6

# BLAS thread counts: the last digits of a run follow them
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_ESTIMATE_BY_FLAG = {
    "2.5": ("weak_est_2_5", 1),
    "2.7": ("strong_est_2_7", 1),
    "2.9": ("higher_est_2_9", 1),
}


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_atomic(path: str, chunks):
    """Write a string, or an iterable of strings, to ``path`` by rename.

    Chunks are written as they come, so a generator's text is never held
    whole; if it raises, the temporary file goes and ``path`` is untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _emit(summary, out_dir, extra_files=None):
    """Print key=value lines and, with --out, write the JSON artifacts."""
    for key, value in summary.items():
        print(f"{key} = {value}")
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    for name, chunks in (extra_files or {}).items():
        _write_atomic(os.path.join(out_dir, name), chunks)


def _manifest(args, scenario, disc, theta, tol, tree=None):
    doc = {
        "command": args.command,
        "scenario": os.path.basename(args.scenario),
        "form": scenario.form,
        "dim_x": scenario.dim_x,
        "dim_w": scenario.dim_w,
        "modes": disc.modes,
        "steps": disc.steps,
        "branching": disc.branching,
        "paths": disc.paths,
        "seed": disc.seed,
        "theta": theta,
        "tol": tol,
    }
    if tree is not None:
        doc["dt"] = tree.dt
        doc["n_nodes"] = tree.n_nodes
        doc["chain"] = tree.is_chain
    doc["bspde_version"] = __version__
    doc["numpy_version"] = np.__version__
    # imported here, not at the top: it costs ~30 ms of start-up and ~1 MB
    from importlib import metadata
    try:  # read without importing scipy
        doc["scipy_version"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        doc["scipy_version"] = None
    doc.update({var: os.environ.get(var) for var in _THREAD_VARS})
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _overlaid(args):
    scenario, disc, run = load_scenario(args.scenario, strict=args.strict)
    overrides = {k: getattr(args, k) for k in
                 ("modes", "steps", "branching", "paths", "seed")
                 if getattr(args, k, None) is not None}
    disc = _checked(dc_replace(disc, **overrides))
    theta = args.theta if args.theta is not None else run.theta
    tol = args.tol if args.tol is not None else run.tol
    return scenario, disc, run, theta, tol


def _checked(disc):
    """``disc``, refused with a ``StructuralError`` if no solver can run it."""
    for key in ("modes", "steps", "paths"):
        value = getattr(disc, key)
        if value is not None and value < 1:
            raise StructuralError(f"{key} must be >= 1, got {value}")
    if disc.branching is not None and disc.branching not in ALLOWED_BRANCHING:
        raise StructuralError(
            f"branching must be one of {ALLOWED_BRANCHING}, got {disc.branching}")
    if disc.seed < 0:
        raise StructuralError(f"seed must be >= 0, got {disc.seed}")
    return disc


def _make_tree(scenario, disc, args):
    # deterministic scenarios carry no randomness: a single zero-increment
    # chain is exact and cheap, unless the user explicitly forces branching
    if scenario.is_deterministic and args.branching is None:
        return build_chain(scenario.dim_w, disc.steps, scenario.horizon)
    return build_tree(scenario.dim_w, disc.steps, disc.branching or 2,
                      scenario.horizon)


def _make_basis(scenario, disc):
    return SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)


def _fields_csv(solution, tree, basis):
    """The lines of fields.csv: the header, then one string per node."""
    dw = tree.dim_w
    header = (["level", "node"] + [f"x{i+1}" for i in range(basis.dim_x)]
              + ["p"] + [f"q{k+1}" for k in range(dw)])
    xs = [",".join(map(_fmt, x)) for x in basis.grid_points.tolist()]
    row = "%d,%d,%s" + ",%.12e" * (1 + dw) + "\n"  # the digits of _fmt
    yield ",".join(header) + "\n"
    for level in range(tree.n_steps):  # both p and q live on 0..N-1
        # node by node: a level-wide reconstruct moves last digits
        for node, (p, q) in enumerate(zip(solution.p.levels[level],
                                          solution.q.levels[level])):
            cols = [basis.reconstruct(v).real.tolist() for v in (p, *q)]
            yield "".join([row % (level, node, x, *vals)
                           for x, *vals in zip(xs, *cols)])


def cmd_solve(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    basis = _make_basis(scenario, disc)
    tree = _make_tree(scenario, disc, args)
    solution = solve_tree(scenario, tree, basis, SchemeConfig(theta=theta))
    p0 = solution.p0()

    summary = {
        "command": "solve",
        "dt": _fmt(tree.dt),
        "modes": disc.modes,
        "steps": disc.steps,
        "n_nodes": tree.n_nodes,
        "theta": _fmt(theta),
        "p0_l2": _fmt(p0.norm(0)),
        "p0_h1": _fmt(p0.norm(1)),
        "p_time_h1": _fmt(math.sqrt(solution.p.time_norm_sq(1))),
        "q_time_l2": _fmt(math.sqrt(solution.q.time_norm_sq(0))),
    }
    width = len(str(tree.n_steps - 1))
    for level in range(tree.n_steps):
        qn = math.sqrt(solution.q.level_expected_norm_sq(level, 0))
        summary[f"q_norm_{level:0{width}d}"] = _fmt(qn)
    extra = None
    if args.out is not None:  # the field dump is only ever written, never printed
        extra = {
            "fields.csv": _fields_csv(solution, tree, basis),
            "manifest.json": _manifest(args, scenario, disc, theta, tol, tree),
        }
    _emit(summary, args.out, extra)
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    report = scenario.validation
    summary = {
        "command": "validate",
        "symmetry_ok": report.symmetry_ok,
        "superparabolic_ok": report.superparabolic_ok,
        "min_margin": _fmt(report.min_margin),
        "bounds_ok": report.bounds_ok,
        "modulus_ok": report.modulus_ok,
        "sample_count": report.sample_count,
        "all_ok": report.all_ok,
    }
    extra = {"manifest.json": _manifest(args, scenario, disc, theta, tol)}
    _emit(summary, args.out, extra)
    return EXIT_OK


def cmd_audit(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    basis = _make_basis(scenario, disc)
    tree = _make_tree(scenario, disc, args)
    solution = solve_tree(scenario, tree, basis, SchemeConfig(theta=theta))

    wanted = ["2.5", "2.7", "2.9"] if args.estimate == "all" else [args.estimate]
    rows = []
    for flag in wanted:
        tag, order = _ESTIMATE_BY_FLAG[flag]
        rows.append(energy_audit(solution, scenario, tree, basis,
                                 theorem_tag=tag, order=order))

    table = ["theorem_tag,lhs,rhs_data,fitted_C,passed"]
    summary = {"command": "audit", "estimates": len(rows)}
    all_passed = True
    for rep in rows:
        table.append(",".join([rep.theorem_tag, _fmt(rep.lhs), _fmt(rep.rhs_data),
                               _fmt(rep.fitted_C), str(rep.passed).lower()]))
        summary[f"fitted_C[{rep.theorem_tag}]"] = _fmt(rep.fitted_C)
        summary[f"passed[{rep.theorem_tag}]"] = rep.passed
        all_passed = all_passed and rep.passed
    for line in table:
        print(line)
    summary["all_passed"] = all_passed
    extra = {
        "estimates.csv": "\n".join(table) + "\n",
        "manifest.json": _manifest(args, scenario, disc, theta, tol, tree),
    }
    _emit(summary, args.out, extra)
    return EXIT_OK if all_passed else EXIT_TOLERANCE


def cmd_compare(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    basis = _make_basis(scenario, disc)
    tree = _make_tree(scenario, disc, args)
    scheme = SchemeConfig(theta=theta)
    iterative = solve_tree(scenario, tree, basis, scheme)
    dense = solve_dense(scenario, tree, basis, scheme)

    p_scale = max(max(float(np.abs(lv).max()) for lv in dense.p.levels), 1e-300)
    p_diff = max(float(np.abs(a - b).max())
                 for a, b in zip(iterative.p.levels, dense.p.levels))
    q_diff = max((float(np.abs(a - b).max())
                  for a, b in zip(iterative.q.levels, dense.q.levels)
                  if a.size), default=0.0)
    rel = max(p_diff, q_diff) / p_scale
    ok = rel <= tol
    summary = {
        "command": "compare",
        "max_diff_p": _fmt(p_diff),
        "max_diff_q": _fmt(q_diff),
        "max_rel_diff": _fmt(rel),
        "tolerance": _fmt(tol),
        "within_tolerance": ok,
    }
    extra = {"manifest.json": _manifest(args, scenario, disc, theta, tol, tree)}
    _emit(summary, args.out, extra)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_positivity(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    basis = _make_basis(scenario, disc)
    tree = _make_tree(scenario, disc, args)
    solution = solve_tree(scenario, tree, basis, SchemeConfig(theta=theta))
    report = positivity_check(solution, scenario, tree, basis)
    scale = report.max_abs_value
    threshold = -tol * max(scale, 1.0)
    ok = report.min_value >= threshold and report.envelope.passed

    summary = {
        "command": "positivity",
        "min_value": _fmt(report.min_value),
        "scale": _fmt(scale),
        "threshold": _fmt(threshold),
        "envelope_fitted_C": _fmt(report.fitted_C),
        "envelope_passed": report.envelope.passed,
        "nonnegative": ok,
    }
    width = len(str(tree.n_steps))
    for level, v in enumerate(report.negpart_l2_per_level):
        summary[f"negpart_{level:0{width}d}"] = _fmt(v)
    extra = {"manifest.json": _manifest(args, scenario, disc, theta, tol, tree)}
    _emit(summary, args.out, extra)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_mollify_study(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    raw = run.option("smoothing", "4,8,16")
    try:
        ns = [int(s) for s in str(raw).split(",") if s.strip()]
    except ValueError:
        ns = []
    if not ns:  # an empty study would pass vacuously
        raise ParseError(f"bad value for run.smoothing: {raw!r}")
    basis = _make_basis(scenario, disc)
    tree = _make_tree(scenario, disc, args)
    scheme = SchemeConfig(theta=theta)
    base = solve_tree(scenario, tree, basis, scheme)

    modulus = default_modulus(scenario.bound_K)
    rows = ["n,defect,relaxed_validate_ok"]
    defects = []
    for n in ns:
        smooth = mollify(scenario, MollifierConfig(n), basis)
        sol_n = solve_tree(smooth, tree, basis, scheme)
        defect = math.sqrt(pair_difference(sol_n, base).p.time_norm_sq(0))
        relaxed = smooth.with_fields(
            ellipticity_kappa=scenario.ellipticity_kappa / 2.0,
            bound_K=2.0 * scenario.bound_K)
        rep = validate_scenario(relaxed, modulus)
        defects.append(defect)
        rows.append(f"{n},{_fmt(defect)},{str(rep.all_ok).lower()}")
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(defects, defects[1:]))
    for line in rows:
        print(line)
    summary = {"command": "mollify-study",
               "smoothing_indices": ",".join(str(n) for n in ns),
               "monotone_decreasing": monotone}
    for n, dfct in zip(ns, defects):
        summary[f"defect[n={n}]"] = _fmt(dfct)
    extra = {
        "study.csv": "\n".join(rows) + "\n",
        "manifest.json": _manifest(args, scenario, disc, theta, tol, tree),
    }
    _emit(summary, args.out, extra)
    return EXIT_OK if monotone else EXIT_TOLERANCE


def cmd_regress(args) -> int:
    scenario, disc, run, theta, tol = _overlaid(args)
    basis = _make_basis(scenario, disc)
    if disc.paths is None:
        disc = dc_replace(disc, paths=256)
    ensemble = sample_paths(scenario.dim_w, disc.steps, disc.paths,
                            scenario.horizon, seed=disc.seed)
    reg = solve_regression(scenario, ensemble, basis,
                           scheme=SchemeConfig(theta=theta))
    p0 = reg.p0()
    summary = {
        "command": "regress",
        "paths": disc.paths,
        "seed": disc.seed,
        "steps": disc.steps,
        "modes": disc.modes,
        "p0_l2": _fmt(p0.norm(0)),
        "p0_h1": _fmt(p0.norm(1)),
    }
    extra = {"manifest.json": _manifest(args, scenario, disc, theta, tol)}
    _emit(summary, args.out, extra)
    return EXIT_OK


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--out", metavar="DIR", help="write artifacts into DIR")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--strict", action="store_true",
                   help="treat validation failure as an error")
    p.add_argument("--modes", type=int, help="spectral modes per axis")
    p.add_argument("--steps", type=int, help="time steps")
    p.add_argument("--branching", type=int, choices=ALLOWED_BRANCHING,
                   help="tree branching per noise axis")
    p.add_argument("--paths", type=int, help="regression sample paths")
    p.add_argument("--theta", type=float, help="time-stepping theta in [0,1]")
    p.add_argument("--tol", type=float, help="pass/fail tolerance")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bspde",
        description="Backward stochastic PDE laboratory: spectral-in-space, "
                    "tree- or regression-in-noise solves with estimate audits.")
    sub = ap.add_subparsers(dest="command", required=True)
    handlers = [
        ("solve", cmd_solve, "solve a scenario and dump fields"),
        ("validate", cmd_validate, "run the standing-assumption audit"),
        ("audit", cmd_audit, "fit energy-estimate constants"),
        ("compare", cmd_compare, "check the solver against the dense oracle"),
        ("positivity", cmd_positivity, "minimum values and negative-part envelope"),
        ("mollify-study", cmd_mollify_study, "solution drift under coefficient smoothing"),
        ("regress", cmd_regress, "least-squares Monte Carlo solve"),
    ]
    for name, fn, help_text in handlers:
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        if name == "audit":
            p.add_argument("--estimate", choices=("2.5", "2.7", "2.9", "all"),
                           default="all", help="which estimate to fit")
        p.set_defaults(handler=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, EvalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except StructuralError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as e:
        print(f"error: linear algebra failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
