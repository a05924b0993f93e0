"""Command-line driver.

Subcommands: solve, validate, audit, compare, positivity, mollify-study,
regress.  Each takes a scenario file, applies flag overrides, prints a
key=value summary to stdout (stable key order), and optionally writes
its data files (CSV tables, or solve's ``fields.npz`` of coefficient rows)
plus ``summary.json``, ``scenario.scn`` (the scenario as run, which reruns
the command) and ``manifest.json`` into ``--out`` (atomic
write-then-rename).  Exit codes: 0 success, 2 parse, 3 validation,
4 budget, 5 numeric, 6 tolerance; a scenario-file error names the line and
column of the file where it sits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import zipfile
from dataclasses import replace as dc_replace
from functools import cache, cached_property

import numpy as np

from . import __version__
from .analysis import (MollifierConfig, _source_field, energy_audit, mollify,
                       positivity_check)
from .errors import (BudgetError, EvalError, NumericError, ParseError,
                     ScenarioValidationError, StructuralError)
from .oracle import solve_dense
from .scenario import validate as validate_scenario
from .scenario_file import default_modulus, load_scenario, serialize_scenario
from .solver import (SchemeConfig, _check_solution_bytes, pair_difference, solve_regression,
                     solve_tree)
from .space import SpectralBasis
from .wiener import ALLOWED_BRANCHING, _tree_nodes, build_chain, build_tree, sample_paths

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_NUMERIC = 5
EXIT_TOLERANCE = 6

# BLAS thread counts: the last digits of a run follow them
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_ESTIMATE_BY_FLAG = {"2.5": "weak_est_2_5", "2.7": "strong_est_2_7", "2.9": "higher_est_2_9"}


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_atomic(path: str, content):
    """Write ``content`` to ``path`` by rename: a string, or a writer called
    with the open binary file.  If it raises, the temporary file goes and
    ``path`` is untouched."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            if isinstance(content, str):
                fh.write(content.encode("utf-8"))
            else:
                content(fh)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _checked(disc):
    """``disc``, refused with a ``StructuralError`` if no solver can run it."""
    for key in ("modes", "steps", "paths"):
        value = getattr(disc, key)
        if value is not None and value < 1:
            raise StructuralError(f"{key} must be >= 1, got {value}")
    if disc.branching not in ALLOWED_BRANCHING:
        raise StructuralError(
            f"branching must be one of {ALLOWED_BRANCHING}, got {disc.branching}")
    if disc.seed < 0:
        raise StructuralError(f"seed must be >= 0, got {disc.seed}")
    return disc


class _Run:
    """One command's run: the scenario file with the flags applied, the
    basis and the tree built on first use, and the output."""

    def __init__(self, args):
        self.args = args
        self.scenario, disc, self.run = load_scenario(args.scenario, strict=args.strict)
        overrides = {k: getattr(args, k) for k in
                     ("modes", "steps", "branching", "paths", "seed")
                     if getattr(args, k) is not None}
        self.disc = _checked(dc_replace(disc, **overrides))
        # both are refused here, before anything is built, for every command
        self.scheme = SchemeConfig(theta=args.theta if args.theta is not None
                                   else self.run.theta)
        self.tol = args.tol if args.tol is not None else self.run.tol
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise StructuralError(f"tol must be finite and >= 0, got {self.tol}")

    @cached_property
    def basis(self) -> SpectralBasis:
        sc = self.scenario
        return SpectralBasis(sc.dim_x, self.disc.modes, sc.domain_halfwidth)

    @cached_property
    def tree(self):
        sc, disc = self.scenario, self.disc
        # deterministic scenarios carry no randomness: a single zero-increment
        # chain is exact and cheap, unless the user explicitly forces branching
        chain = sc.is_deterministic and self.args.branching is None
        nodes = disc.steps + 1 if chain else _tree_nodes(sc.dim_w, disc.steps, disc.branching)
        # every command solves the tree it reads: p and q are refused before it is built
        _check_solution_bytes(nodes, self.basis.n_modes, sc.dim_w)
        if chain:
            return build_chain(sc.dim_w, disc.steps, sc.horizon)
        return build_tree(sc.dim_w, disc.steps, disc.branching, sc.horizon)

    def solve(self, scenario=None):
        return solve_tree(scenario or self.scenario, self.tree, self.basis, self.scheme)

    def emit(self, summary, files=None):
        """Print key=value lines and, with --out, write ``summary.json``,
        ``files`` (name -> text or a binary writer), ``scenario.scn`` (the
        scenario as run, flags applied) and ``manifest.json``."""
        for key, value in summary.items():
            print(f"{key} = {value}")
        out_dir = self.args.out
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        files = {"summary.json": json.dumps(summary, sort_keys=True, indent=2) + "\n",
                 **(files or {}),
                 "scenario.scn": serialize_scenario(
                     self.scenario, self.disc,
                     dc_replace(self.run, theta=self.scheme.theta, tol=self.tol)),
                 "manifest.json": self._manifest()}
        for name, chunks in files.items():
            _write_atomic(os.path.join(out_dir, name), chunks)

    def _manifest(self) -> str:
        sc, disc = self.scenario, self.disc
        doc = {
            "command": self.args.command,
            "scenario": os.path.basename(self.args.scenario),
            "form": sc.form,
            "dim_x": sc.dim_x,
            "dim_w": sc.dim_w,
            "modes": disc.modes,
            "steps": disc.steps,
            "branching": disc.branching,
            "paths": disc.paths,
            "seed": disc.seed,
            "theta": self.scheme.theta,
            "tol": self.tol,
        }
        if "tree" in self.__dict__:  # built by this command
            doc.update(dt=self.tree.dt, n_nodes=self.tree.n_nodes,
                       chain=self.tree.is_chain)
        doc["bspde_version"] = __version__
        doc["numpy_version"] = np.__version__
        doc["scipy_version"] = _scipy_version()
        doc.update({var: os.environ.get(var) for var in _THREAD_VARS})
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@cache
def _scipy_version() -> str | None:  # read once per process, without importing scipy
    from importlib import metadata  # imported here: ~30 ms of start-up and ~1 MB
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _fields_npz(solution, grid):
    """The writer of fields.npz: ``p``, every node of levels 0..N in level
    order, ``q``, those of levels 0..N-1, ``level_nodes``, each level's node
    count, and ``grid``, the grid points.  Each entry is one ``.npy`` header
    and then its levels' bytes as the solve holds them, so no field is
    copied whole; a fixed time stamp makes equal runs write equal files."""
    p = solution.p.levels
    entries = {"p": p, "q": solution.q.levels,
               "level_nodes": [np.array([len(rows) for rows in p])], "grid": [grid]}

    def write(fh):
        with zipfile.ZipFile(fh, "w") as archive:
            for name, parts in entries.items():
                with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                                  force_zip64=True) as entry:
                    np.lib.format.write_array_header_1_0(entry, {
                        "descr": np.lib.format.dtype_to_descr(parts[0].dtype),
                        "fortran_order": False,
                        "shape": (sum(map(len, parts)), *parts[0].shape[1:])})
                    for rows in parts:
                        entry.write(np.ascontiguousarray(rows))
    return write


def cmd_solve(r: _Run) -> int:
    solution, tree = r.solve(), r.tree
    p0 = solution.p0()
    summary = {
        "command": "solve",
        "dt": _fmt(tree.dt),
        "modes": r.disc.modes,
        "steps": r.disc.steps,
        "n_nodes": tree.n_nodes,
        "theta": _fmt(r.scheme.theta),
        "p0_l2": _fmt(p0.norm(0)),
        "p0_h1": _fmt(p0.norm(1)),
        "p_time_h1": _fmt(math.sqrt(solution.p.time_norm_sq(1))),
        "q_time_l2": _fmt(math.sqrt(solution.q.time_norm_sq(0))),
    }
    width = len(str(tree.n_steps - 1))
    for level, sq in enumerate(solution.q.expected_norms_sq(0)):
        summary[f"q_norm_{level:0{width}d}"] = _fmt(math.sqrt(sq))
    # the coefficient rows are only ever written, never printed
    r.emit(summary, {"fields.npz": _fields_npz(solution, r.basis.grid_points)})
    return EXIT_OK


def cmd_validate(r: _Run) -> int:
    report = r.scenario.validation
    r.emit({
        "command": "validate",
        "symmetry_ok": report.symmetry_ok,
        "superparabolic_ok": report.superparabolic_ok,
        "min_margin": _fmt(report.min_margin),
        "bounds_ok": report.bounds_ok,
        "modulus_ok": report.modulus_ok,
        "sample_count": report.sample_count,
        "all_ok": report.all_ok,
    })
    return EXIT_OK


def cmd_audit(r: _Run) -> int:
    solution = r.solve()
    wanted = list(_ESTIMATE_BY_FLAG) if r.args.estimate == "all" else [r.args.estimate]
    table = ["theorem_tag,lhs,rhs_data,fitted_C,passed"]
    summary = {"command": "audit", "estimates": len(wanted)}
    all_passed = True
    source = _source_field(r.scenario, r.tree, r.basis)  # read once for every estimate
    for flag in wanted:
        rep = energy_audit(solution, r.scenario, r.tree, r.basis,
                           theorem_tag=_ESTIMATE_BY_FLAG[flag], source=source)
        table.append(",".join([rep.theorem_tag, _fmt(rep.lhs), _fmt(rep.rhs_data),
                               _fmt(rep.fitted_C), str(rep.passed).lower()]))
        summary[f"fitted_C[{rep.theorem_tag}]"] = _fmt(rep.fitted_C)
        summary[f"passed[{rep.theorem_tag}]"] = rep.passed
        all_passed = all_passed and rep.passed
    for line in table:
        print(line)
    summary["all_passed"] = all_passed
    r.emit(summary, {"estimates.csv": "\n".join(table) + "\n"})
    return EXIT_OK if all_passed else EXIT_TOLERANCE


def cmd_compare(r: _Run) -> int:
    iterative = r.solve()
    dense = solve_dense(r.scenario, r.tree, r.basis, r.scheme)
    p_scale = max(max(float(np.abs(lv).max()) for lv in dense.p.levels), 1e-300)
    p_diff = max(float(np.abs(a - b).max())
                 for a, b in zip(iterative.p.levels, dense.p.levels))
    q_diff = max((float(np.abs(a - b).max())
                  for a, b in zip(iterative.q.levels, dense.q.levels)
                  if a.size), default=0.0)
    rel = max(p_diff, q_diff) / p_scale
    ok = rel <= r.tol
    r.emit({
        "command": "compare",
        "max_diff_p": _fmt(p_diff),
        "max_diff_q": _fmt(q_diff),
        "max_rel_diff": _fmt(rel),
        "tolerance": _fmt(r.tol),
        "within_tolerance": ok,
    })
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_positivity(r: _Run) -> int:
    report = positivity_check(r.solve(), r.scenario, r.tree, r.basis)
    scale = report.max_abs_value
    threshold = -r.tol * max(scale, 1.0)
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
    width = len(str(r.tree.n_steps))
    for level, v in enumerate(report.negpart_l2_per_level):
        summary[f"negpart_{level:0{width}d}"] = _fmt(v)
    r.emit(summary)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_mollify_study(r: _Run) -> int:
    ns, scenario = r.run.smoothing, r.scenario
    # every kernel radius is checked against the grid spacing before any solve
    smooths = [mollify(scenario, MollifierConfig(n), r.basis) for n in ns]
    base = r.solve()
    modulus = default_modulus(scenario.bound_K)
    rows = ["n,defect,relaxed_validate_ok"]
    defects = []
    for n, smooth in zip(ns, smooths):
        defect = math.sqrt(pair_difference(r.solve(smooth), base).p.time_norm_sq(0))
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
    r.emit(summary, {"study.csv": "\n".join(rows) + "\n"})
    return EXIT_OK if monotone else EXIT_TOLERANCE


def cmd_regress(r: _Run) -> int:
    if r.disc.paths is None:
        r.disc = dc_replace(r.disc, paths=256)
    sc, disc = r.scenario, r.disc
    ensemble = sample_paths(sc.dim_w, disc.steps, disc.paths, sc.horizon, seed=disc.seed)
    p0 = solve_regression(sc, ensemble, r.basis, scheme=r.scheme).p0()
    r.emit({
        "command": "regress",
        "paths": disc.paths,
        "seed": disc.seed,
        "steps": disc.steps,
        "modes": disc.modes,
        "p0_l2": _fmt(p0.norm(0)),
        "p0_h1": _fmt(p0.norm(1)),
    })
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (a parse never changes it)."""
    ap = argparse.ArgumentParser(
        prog="bspde",
        description="Backward stochastic PDE laboratory: spectral-in-space, "
                    "tree- or regression-in-noise solves with estimate audits.")
    sub = ap.add_subparsers(dest="command", required=True)
    handlers = [
        ("solve", cmd_solve, "solve a scenario and write its coefficient rows"),
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
            p.add_argument("--estimate", choices=(*_ESTIMATE_BY_FLAG, "all"),
                           default="all", help="which estimate to fit")
        p.set_defaults(handler=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the most specific class in an error's MRO decides its exit code
    exit_codes = {
        ParseError: EXIT_PARSE, EvalError: EXIT_PARSE, OSError: EXIT_PARSE,
        ScenarioValidationError: EXIT_VALIDATION, StructuralError: EXIT_VALIDATION,
        BudgetError: EXIT_BUDGET,
        NumericError: EXIT_NUMERIC, np.linalg.LinAlgError: EXIT_NUMERIC,
    }
    try:
        return args.handler(_Run(args))
    except tuple(exit_codes) as e:
        code = next(exit_codes[c] for c in type(e).__mro__ if c in exit_codes)
        kind = "linear algebra failure: " if isinstance(e, np.linalg.LinAlgError) else ""
        print(f"error: {kind}{e}", file=sys.stderr)
        return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
