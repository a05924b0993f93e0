"""Command line interface: stdout contracts, exit codes, and artifacts."""

import importlib.metadata
import io
import json
import os
import zipfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bspde
from bspde import (SchemeConfig, SpectralBasis, build_chain, build_tree, load_scenario,
                   solve_tree)
from bspde.cli import _fields_npz, _write_atomic, main

DATA = Path(__file__).parent / "data"
TINY = str(DATA / "tiny.scn")
ROUGH = str(DATA / "rough.scn")
SINGULAR = str(DATA / "singular.scn")
BAD_PARSE = str(DATA / "bad_parse.scn")
BAD_VALID = str(DATA / "bad_valid.scn")


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


# 2-d with two noises: both q columns carry a field
TWO_NOISES = """\
[problem]
d = 2
d1 = 2
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.25

[coefficients]
a = [[0.5, 0], [0, 0.5]]
sigma = [[0.2, 0], [0, 0.2]]
nu = [0.1, 0.1]

[data]
F = cos(x1 - x2)
phi = cos(x1)*(1 + 0.2*w1) + 0.3*sin(x2)*w2

[discretization]
modes = 2
steps = 2
branching = 2
"""


def solved(scn):
    """``solve_tree`` of a scenario file on the tree or chain ``solve`` builds,
    and its basis."""
    scenario, disc, cfg = load_scenario(scn)
    tree = (build_chain(scenario.dim_w, disc.steps, scenario.horizon)
            if scenario.is_deterministic
            else build_tree(scenario.dim_w, disc.steps, disc.branching, scenario.horizon))
    basis = SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)
    return solve_tree(scenario, tree, basis, SchemeConfig(theta=cfg.theta)), basis


SOLVE_TINY_GOLDEN = """\
command = solve
dt = 1.666666666667e-01
modes = 4
steps = 3
n_nodes = 15
theta = 1.000000000000e+00
p0_l2 = 1.507607443948e+00
p0_h1 = 1.596753632127e+00
p_time_h1 = 1.173724358766e+00
q_time_l2 = 1.391283102893e-01
q_norm_0 = 1.934963719430e-01
q_norm_1 = 1.967213114754e-01
q_norm_2 = 2.000000000000e-01
"""

AUDIT_TINY_GOLDEN = """\
theorem_tag,lhs,rhs_data,fitted_C,passed
weak_est_2_5,4.221098639675e+00,2.792280092593e+00,1.511703160035e+00,true
strong_est_2_7,5.003004664842e+00,3.314560185185e+00,1.509402269177e+00,true
higher_est_2_9,6.676085876643e+00,4.359120370370e+00,1.531521341329e+00,true
command = audit
estimates = 3
fitted_C[weak_est_2_5] = 1.511703160035e+00
passed[weak_est_2_5] = True
fitted_C[strong_est_2_7] = 1.509402269177e+00
passed[strong_est_2_7] = True
fitted_C[higher_est_2_9] = 1.531521341329e+00
passed[higher_est_2_9] = True
all_passed = True
"""

POSITIVITY_TINY_GOLDEN = """\
command = positivity
min_value = 2.702432727095e-01
scale = 2.729756727291e+00
threshold = -2.729756727291e-10
envelope_fitted_C = 0.000000000000e+00
envelope_passed = True
nonnegative = True
negpart_0 = 0.000000000000e+00
negpart_1 = 0.000000000000e+00
negpart_2 = 0.000000000000e+00
negpart_3 = 0.000000000000e+00
"""

VALIDATE_TINY_GOLDEN = """\
command = validate
symmetry_ok = True
superparabolic_ok = True
min_margin = 6.102675800081e-01
bounds_ok = True
modulus_ok = True
sample_count = 195
all_ok = True
"""

VALIDATE_BAD_GOLDEN = """\
command = validate
symmetry_ok = True
superparabolic_ok = False
min_margin = -3.000000000000e-01
bounds_ok = True
modulus_ok = True
sample_count = 75
all_ok = False
"""

COMPARE_TINY_GOLDEN = """\
command = compare
max_diff_p = 4.440892098501e-16
max_diff_q = 5.551115123126e-16
max_rel_diff = 3.181247821543e-16
tolerance = 1.000000000000e-10
within_tolerance = True
"""

MOLLIFY_ROUGH_GOLDEN = """\
n,defect,relaxed_validate_ok
4,7.342991825307e-04,true
8,2.037718200842e-04,true
16,6.862193952182e-05,true
command = mollify-study
smoothing_indices = 4,8,16
monotone_decreasing = True
defect[n=4] = 7.342991825307e-04
defect[n=8] = 2.037718200842e-04
defect[n=16] = 6.862193952182e-05
"""

REGRESS_TINY_GOLDEN = """\
command = regress
paths = 500
seed = 11
steps = 3
modes = 4
p0_l2 = 1.509346187461e+00
p0_h1 = 1.598751678610e+00
"""

REGRESS_ROUGH_GOLDEN = """\
command = regress
paths = 500
seed = 0
steps = 8
modes = 24
p0_l2 = 1.668944028062e-01
p0_h1 = 5.502838785379e-01
"""

REGRESS_MARKOV_C_GOLDEN = """\
command = regress
paths = 500
seed = 11
steps = 3
modes = 4
p0_l2 = 1.508457190568e+00
p0_h1 = 1.597869168209e+00
"""


class TestGoldenOutput:
    def test_solve_tiny(self):
        code, out, _ = run("solve", TINY)
        assert code == 0
        assert out == SOLVE_TINY_GOLDEN

    @pytest.mark.parametrize("argv, golden", [
        (("audit", TINY), AUDIT_TINY_GOLDEN),
        (("positivity", TINY), POSITIVITY_TINY_GOLDEN),
        (("mollify-study", ROUGH), MOLLIFY_ROUGH_GOLDEN),
        (("validate", TINY), VALIDATE_TINY_GOLDEN),
        pytest.param(("validate", BAD_VALID), VALIDATE_BAD_GOLDEN,
                     marks=pytest.mark.filterwarnings("ignore:scenario fails")),
    ], ids=["audit-tiny", "positivity-tiny", "mollify-study-rough", "validate-tiny",
            "validate-bad-valid"])
    def test_full_stdout(self, argv, golden):
        code, out, _ = run(*argv)
        assert code == 0
        assert out == golden

    @pytest.mark.parametrize("scenario, edit, golden", [
        (TINY, None, REGRESS_TINY_GOLDEN),
        (ROUGH, None, REGRESS_ROUGH_GOLDEN),
        (TINY, ("c = 0.1\n", "c = 0.1 + 0.05*sin(w1)\n"), REGRESS_MARKOV_C_GOLDEN),
    ], ids=["tiny-shared-row", "rough", "tiny-markov-c-per-path-blocks"])
    def test_regress_full_stdout(self, tmp_path, scenario, edit, golden):
        # tiny steps the fitted coefficient rows of one shared operator row
        # with nonzero sigma and nu; a Markov c gives every path its own
        # operators, stepped one block of paths at a time
        if edit is not None:
            text = Path(scenario).read_text(encoding="utf-8")
            assert edit[0] in text
            scenario = tmp_path / "edited.scn"
            scenario.write_text(text.replace(*edit), encoding="utf-8")
        code, out, _ = run("regress", str(scenario), "--paths", "500")
        assert code == 0
        assert out == golden

    def test_compare_full_stdout(self):
        # the three differences are round-off of the dense oracle's LU, whose
        # last digits follow the BLAS thread count (the golden is one thread);
        # every other line is exact
        code, out, _ = run("compare", TINY)
        assert code == 0
        got, want = out.splitlines(), COMPARE_TINY_GOLDEN.splitlines()
        assert [l.split(" = ")[0] for l in got] == [l.split(" = ")[0] for l in want]
        for line, ref in zip(got, want):
            if line.startswith(("max_diff_p", "max_diff_q", "max_rel_diff")):
                assert float(line.split(" = ")[1]) <= 1e-15
            else:
                assert line == ref

    def test_reruns_are_bit_identical(self):
        first = run("solve", TINY)
        second = run("solve", TINY)
        assert first == second
        assert run("audit", TINY) == run("audit", TINY)

    def test_validate_tiny(self):
        code, out, _ = run("validate", TINY)
        assert code == 0
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert lines["command"] == "validate"
        assert lines["all_ok"] == "True"
        assert lines["min_margin"] == "6.102675800081e-01"

    def test_audit_reduces_each_field_order_and_level_once(self, monkeypatch):
        rows = {}
        norm_sq = SpectralBasis.norm_sq

        def counted(basis, coeffs, order=0):
            rows[order] = rows.get(order, 0) + len(coeffs)  # node rows
            return norm_sq(basis, coeffs, order)
        monkeypatch.setattr(SpectralBasis, "norm_sq", counted)
        code, out, _ = run("audit", TINY, "--estimate", "all")
        assert (code, out) == (0, AUDIT_TINY_GOLDEN)
        # tiny's tree: 3 steps, 2 children; each estimate at n reads p at
        # n+2 over levels 0..2 and at n+1 over 0..3, q at n+1 over 0..2, and
        # its own source F, whose t-dependent row is one per level, at n
        nodes, needed = [1, 2, 4, 8], set()
        for n in (-1, 0, 1):
            needed |= {("p", n + 2, k) for k in range(3)} | {("p", n + 1, k) for k in range(4)}
            needed |= {("q", n + 1, k) for k in range(3)} | {(f"F{n}", n, k) for k in range(3)}
        want = {}
        for field_, order, k in needed:
            want[order] = want.get(order, 0) + (1 if field_.startswith("F") else nodes[k])
        assert rows == want

    def test_audit_table(self):
        code, out, _ = run("audit", TINY)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theorem_tag,lhs,rhs_data,fitted_C,passed"
        tags = [l.split(",")[0] for l in lines[1:4]]
        assert tags == ["weak_est_2_5", "strong_est_2_7", "higher_est_2_9"]
        assert all(l.endswith(",true") for l in lines[1:4])
        assert "all_passed = True" in out

    def test_audit_single_estimate(self):
        code, out, _ = run("audit", TINY, "--estimate", "2.7")
        assert code == 0
        body = [l for l in out.splitlines() if l.startswith(("weak", "strong", "higher"))]
        assert len(body) == 1
        assert body[0].startswith("strong_est_2_7,")

    def test_compare_tiny(self):
        code, out, _ = run("compare", TINY)
        assert code == 0
        assert "within_tolerance = True" in out

    def test_positivity_tiny(self):
        code, out, _ = run("positivity", TINY)
        assert code == 0
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert lines["nonnegative"] == "True"
        assert lines["envelope_passed"] == "True"
        assert float(lines["min_value"]) > 0

    def test_cli_overrides_reach_summary(self):
        code, out, _ = run("solve", TINY, "--modes", "6", "--theta", "0.5")
        assert code == 0
        assert "modes = 6" in out
        assert "theta = 5.000000000000e-01" in out


class TestChainSelection:
    def test_deterministic_scenario_runs_on_chain(self):
        code, out, _ = run("solve", ROUGH)
        assert code == 0
        assert "n_nodes = 9" in out  # steps + 1 nodes, no branching

    def test_adapted_scenario_runs_on_tree(self):
        code, out, _ = run("solve", TINY)
        assert "n_nodes = 15" in out  # binary tree with 3 steps

    def test_explicit_branching_forces_tree(self):
        code, out, _ = run("solve", ROUGH, "--branching", "2")
        assert code == 0
        assert "n_nodes = 511" in out  # 2^9 - 1 over 8 steps


class TestExitCodes:
    def test_parse_error(self):
        code, _, err = run("solve", BAD_PARSE)
        assert code == 2
        assert "y9" in err

    def test_bad_value_reports_its_line(self, tmp_path):
        text = Path(TINY).read_text()
        line = text.splitlines().index("modes = 4") + 1
        path = tmp_path / "bad_modes.scn"
        path.write_text(text.replace("modes = 4", "modes = 4x"))
        code, _, err = run("solve", str(path))
        assert code == 2 and line > 1
        assert err == ("error: bad value for discretization.modes: '4x' "
                       f"(line {line}, column 9)\n")

    def test_bad_form_reports_its_line(self, tmp_path):
        # a misspelt form is a bad value, like any other, not a validation error
        text = Path(TINY).read_text().replace("form = non_divergence", "form = divergnce")
        line = text.splitlines().index("form = divergnce") + 1
        path = tmp_path / "bad_form.scn"
        path.write_text(text)
        code, out, err = run("solve", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: bad value for problem.form: 'divergnce' "
                       f"(line {line}, column 8)\n")

    def test_unknown_section_reports_its_line(self, tmp_path):
        # a misspelt section is refused, not read as absent with default sizes
        text = Path(TINY).read_text().replace("[discretization]", "[discretisation]")
        line = text.splitlines().index("[discretisation]") + 1
        path = tmp_path / "bad_section.scn"
        path.write_text(text)
        code, out, err = run("solve", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown section [discretisation]")
        assert err.endswith(f"(line {line}, column 1)\n")

    @pytest.mark.parametrize("key, value", [("T", "nan"), ("T", "inf"), ("L", "nan"),
                                            ("L", "inf"), ("K", "inf")])
    def test_non_finite_constant_is_refused(self, tmp_path, key, value):
        text = Path(TINY).read_text()
        old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        path = tmp_path / "non_finite.scn"
        path.write_text(text.replace(old, f"{key} = {value}"))
        code, out, err = run("solve", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "must" in err and "Traceback" not in err

    def test_parse_error_names_its_place_in_the_file(self):
        # y9 sits on line 10 of the file, column 15
        code, out, err = run("solve", BAD_PARSE)
        assert (code, out) == (2, "")
        assert err == ("error: [coefficients] a: unknown identifier 'y9' "
                       "(line 10, column 15)\n")

    def test_missing_file(self):
        assert run("solve", str(DATA / "absent.scn"))[0] == 2

    def test_strict_validation_failure(self):
        code, _, err = run("solve", BAD_VALID, "--strict")
        assert code == 3
        assert "standing-assumption audit" in err

    @pytest.mark.filterwarnings("ignore:scenario fails")
    def test_lenient_validation_proceeds(self):
        assert run("solve", BAD_VALID)[0] == 0

    @pytest.mark.filterwarnings("ignore:scenario fails")
    def test_validate_reports_failure_without_erroring(self):
        code, out, _ = run("validate", BAD_VALID)
        assert code == 0
        assert "all_ok = False" in out
        assert "min_margin = -3.000000000000e-01" in out

    def test_validate_strict_exits_nonzero(self):
        assert run("validate", BAD_VALID, "--strict")[0] == 3

    def test_budget_exhaustion(self):
        assert run("solve", TINY, "--steps", "30")[0] == 4

    @pytest.mark.parametrize("args", [("solve", TINY, "--modes", "10000000"),
                                      ("regress", TINY, "--paths", "1000000000000")],
                             ids=["modes", "paths"])
    def test_oversized_setting_is_refused_before_allocation(self, args):
        # the basis matrices and the path increments are checked before they exist
        code, out, err = run(*args)
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("args", [("solve", TINY, "--steps", "20000"),
                                      ("solve", ROUGH, "--steps", "4000000")],
                             ids=["tree-bytes-past-4300-digits", "chain"])
    def test_step_count_past_the_budget_is_refused(self, args):
        # the tree's byte count is too long to print in full; the chain's
        # levels are one shared object, so p and q are refused before memory grows
        code, out, err = run(*args)
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_p_and_q_are_refused_before_the_tree_is_built(self, monkeypatch):
        # a tree that fits its own check but not its solution is never grown
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", 1 << 20)
        built = []
        monkeypatch.setattr("bspde.cli.build_tree", lambda *a: built.append(a))
        code, out, err = run("solve", TINY, "--steps", "16", "--branching", "2")
        assert (code, out, built) == (4, "", [])
        pq_bytes = 131071 * 9 * (1 + 1) * 8  # 9 modes, one Wiener component
        assert err == f"error: p and q on 131071 nodes would take {pq_bytes} bytes, over {1 << 20}\n"

    def test_mollify_radius_below_the_grid_spacing_is_refused_before_any_solve(
            self, monkeypatch):
        solves = []
        monkeypatch.setattr("bspde.cli.solve_tree",
                            lambda *a, _solve=solve_tree: solves.append(a) or _solve(*a))
        code, out, err = run("mollify-study", TINY)
        assert (code, out, solves) == (3, "", [])
        assert err.startswith("error: kernel radius 1/4 = 0.25 is below the grid spacing ")

    def test_numeric_breakdown(self):
        # strongly negative c with theta = 1 makes a singular implicit step
        assert run("solve", SINGULAR)[0] == 5

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_non_finite_step_of_a_well_conditioned_row_names_its_node(self, tmp_path):
        # tiny's operators are one kept inverse of bound about 1, so no node's
        # amplification is computed; phi is nan at the leaves where w1 > 0,
        # and the non-finite check still names the first node that reads one
        path = tmp_path / "nan.scn"
        path.write_text(Path(TINY).read_text().replace("0.2*w1", "0*exp(1000*w1)"))
        code, out, err = run("solve", str(path))
        assert (code, out) == (5, "")
        assert err == ("error: singular implicit step at level 2, node 3 "
                       "(amplification nan)\n")

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_regress_names_the_path_not_a_coefficient_row(self, tmp_path):
        # F is nan on the paths where w1 > 0, so the step's source rows are
        # per path and follow the 4 fitted coefficient rows; the error names
        # the first nan path, not its place among the stepped rows
        path = tmp_path / "nan.scn"
        path.write_text(Path(TINY).read_text().replace(
            "F = 0.5*cos(x1)*(1-t)", "F = 0.5*cos(x1)*(1-t) + 0*exp(1000*w1)"))
        code, out, err = run("regress", str(path))
        assert (code, out) == (5, "")
        assert err == ("error: singular implicit step at level 2, node 31 "
                       "(amplification nan)\n")

    def test_regress_measures_every_path_when_the_bound_proves_nothing(self):
        # singular.scn's inverse has a row sum far above 1e11, so each path's
        # amplification is measured, and the first path is named
        assert run("regress", SINGULAR) == (
            5, "", "error: singular implicit step at level 7, node 0 "
                   "(amplification 1.5e+32)\n")

    def test_tolerance_failure(self):
        assert run("compare", TINY, "--tol", "1e-18")[0] == 6

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["flag", "key"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, monkeypatch, value, where):
        # a tol no result can meet, or every result meets, is refused before
        # anything is built, not reported as a tolerance failure
        built = []
        monkeypatch.setattr("bspde.cli.build_tree", lambda *a: built.append(a))
        scn, flags = TINY, (f"--tol={value}",)
        if where == "key":
            text = Path(TINY).read_text(encoding="utf-8")
            assert "tol = 1e-10" in text
            scn, flags = tmp_path / "tol.scn", ()
            scn.write_text(text.replace("tol = 1e-10", f"tol = {value}"), encoding="utf-8")
        for command in ("compare", "positivity"):
            code, out, err = run(command, str(scn), *flags)
            assert (code, out, built) == (3, "", [])
            assert err == f"error: tol must be finite and >= 0, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
    @pytest.mark.parametrize("where", ["flag", "key"])
    def test_theta_is_refused_before_anything_is_built(self, tmp_path, monkeypatch, value,
                                                       where):
        # a theta the scheme refuses is refused at the start of every
        # command: no tree is built and ``validate --out`` writes no scenario
        built = []
        monkeypatch.setattr("bspde.cli.build_tree", lambda *a: built.append(a))
        scn, flags = TINY, (f"--theta={value}",)
        if where == "key":
            text = Path(TINY).read_text(encoding="utf-8")
            assert "theta = 1.0" in text
            scn, flags = tmp_path / "theta.scn", ()
            scn.write_text(text.replace("theta = 1.0", f"theta = {value}"), encoding="utf-8")
        out_dir = tmp_path / "out"
        for command in ("solve", "validate", "compare"):
            code, out, err = run(command, str(scn), *flags, "--out", str(out_dir))
            assert (code, out, built) == (3, "", [])
            assert err == "error: theta must lie in [0, 1]\n"
        assert not (out_dir / "scenario.scn").exists()

    @pytest.mark.parametrize("command, flags, edit, code", [
        ("solve", ("--steps", "0"), None, 3),
        ("solve", ("--steps", "-2"), None, 3),
        ("regress", ("--paths", "0"), None, 3),
        ("regress", ("--seed", "-1"), None, 3),
        ("solve", (), ("branching = 2", "branching = 4"), 3),
        ("solve", (), ("steps = 3", "steps = 0"), 3),
        ("regress", (), ("steps = 3", "steps = 0"), 3),
        ("mollify-study", (), ("tol = 1e-10", "tol = 1e-10\nsmoothing = 4,x"), 2),
        ("mollify-study", (), ("tol = 1e-10", "tol = 1e-10\nsmoothing = ,"), 2),
        ("mollify-study", (), ("tol = 1e-10", "tol = 1e-10\nsmoothing = 0,4"), 2),
        ("mollify-study", (), ("tol = 1e-10", "tol = 1e-10\nsmoothing = -4"), 2),
        ("mollify-study", (), ("tol = 1e-10", "tol = 1e-10\nsmoothing = 4,4"), 2),
        ("solve", (), ("theta = 1.0", "thetaa = 0.5"), 2),
    ], ids=["steps-flag", "negative-steps-flag", "paths-flag", "seed-flag",
            "branching-key", "steps-key", "regress-steps-key", "smoothing-option",
            "empty-smoothing-option", "zero-smoothing-index", "negative-smoothing-index",
            "repeated-smoothing-index", "misspelt-run-key"])
    def test_bad_discretisation_is_an_error_not_a_traceback(self, tmp_path, command,
                                                            flags, edit, code):
        scn = TINY
        if edit is not None:
            text = Path(TINY).read_text(encoding="utf-8")
            assert edit[0] in text
            scn = tmp_path / "edited.scn"
            scn.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
        got, out, err = run(command, str(scn), *flags)
        assert got == code
        assert out == "" and err.startswith("error: ")


class TestArtifacts:
    def test_solve_artifacts(self, tmp_path):
        code, _, _ = run("solve", TINY, "--out", str(tmp_path))
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["fields.npz", "manifest.json", "scenario.scn",
                                                "summary.json"]

    @pytest.mark.parametrize("argv", [
        ("solve", TINY), ("validate", TINY), ("audit", TINY), ("compare", TINY),
        ("positivity", TINY), ("mollify-study", ROUGH), ("regress", TINY),
    ], ids=lambda argv: argv[0])
    def test_no_manifest_without_out(self, monkeypatch, argv):
        # the manifest reads package metadata, a cost only --out should pay
        def unread(name):
            raise RuntimeError(f"the manifest read {name!r} without --out")
        monkeypatch.setattr(importlib.metadata, "version", unread)
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert f"command = {argv[0]}\n" in out

    @pytest.mark.parametrize("argv, options", [
        (("solve", TINY), ()), (("validate", TINY), ()), (("audit", TINY), ()),
        (("compare", TINY), ()), (("positivity", TINY), ()), (("regress", TINY), ()),
        (("mollify-study", ROUGH), ()), (("positivity", ROUGH), ()),
        (("regress", TINY, "--steps", "4", "--paths", "100"), ()),
        (("compare", TINY, "--modes", "3", "--theta", "0.5", "--tol", "1e-3"), ()),
        (("audit", TINY), ("--estimate", "2.7")),
    ], ids=lambda v: "-".join(Path(a).stem if a.endswith(".scn") else a for a in v))
    def test_written_scenario_reruns_the_command(self, tmp_path, argv, options):
        # scenario.scn holds the scenario with the flags applied, so a rerun
        # on it with no discretisation flag prints the same
        first, second = tmp_path / "first", tmp_path / "second"
        code, out, _ = run(*argv, *options, "--out", str(first))
        rerun = run(argv[0], str(first / "scenario.scn"), *options, "--out", str(second))
        assert rerun[:2] == (code, out)
        assert (second / "scenario.scn").read_bytes() == (first / "scenario.scn").read_bytes()

    def test_a_refused_run_writes_no_scenario(self, tmp_path):
        # tiny's grid is coarser than the smallest kernel radius
        code, _, _ = run("mollify-study", TINY, "--out", str(tmp_path / "out"))
        assert code == 3 and not (tmp_path / "out").exists()

    def test_forced_branching_is_recorded_by_the_manifest_not_the_scenario(self, tmp_path):
        # the scenario file has no key that forces a tree on a deterministic
        # scenario: manifest.json's chain key records which one ran
        code, out, _ = run("solve", ROUGH, "--branching", "2", "--out", str(tmp_path))
        assert code == 0 and json.loads((tmp_path / "manifest.json").read_text())["chain"] is False
        rerun = str(tmp_path / "scenario.scn")
        assert "n_nodes = 9" in run("solve", rerun)[1]
        assert run("solve", rerun, "--branching", "2")[:2] == (code, out)

    def test_summary_json_sorted_and_matches_stdout(self, tmp_path):
        _, out, _ = run("solve", TINY, "--out", str(tmp_path))
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert list(payload) == sorted(payload)
        stdout_pairs = dict(l.split(" = ") for l in out.strip().splitlines())
        assert payload["command"] == "solve"
        # values are stored exactly as printed
        assert payload["p0_l2"] == stdout_pairs["p0_l2"]

    def test_manifest_records_run(self, tmp_path, monkeypatch):
        # the last digits of a run follow the BLAS thread count
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run("solve", TINY, "--out", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"] == "tiny.scn"  # basename only
        assert manifest["steps"] == 3
        assert manifest["branching"] == 2
        assert manifest["chain"] is False
        assert manifest["seed"] == 11
        assert manifest["bspde_version"] == bspde.__version__
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == importlib.metadata.version("scipy")
        assert manifest["OPENBLAS_NUM_THREADS"] == "3"
        assert manifest["OMP_NUM_THREADS"] is None
        assert manifest["MKL_NUM_THREADS"] is None

    @pytest.mark.parametrize("name", ["tiny", "two_noises", "rough_chain"])
    def test_fields_npz_holds_the_rows_of_the_solve(self, tmp_path, name):
        scn = {"tiny": TINY, "rough_chain": ROUGH}.get(name)
        if scn is None:
            scn = tmp_path / "two_noises.scn"
            scn.write_text(TWO_NOISES, encoding="utf-8")
        for out in ("first", "second"):
            assert run("solve", str(scn), "--out", str(tmp_path / out))[0] == 0
        # a fixed time stamp: equal runs write equal files
        stored = (tmp_path / "first" / "fields.npz").read_bytes()
        assert (tmp_path / "second" / "fields.npz").read_bytes() == stored
        with np.load(tmp_path / "first" / "fields.npz") as npz:
            assert npz.files == ["p", "q", "level_nodes", "grid"]
            fields = dict(npz)
        solution, basis = solved(str(scn))
        p, q = solution.p.levels, solution.q.levels
        assert fields["level_nodes"].tolist() == [len(rows) for rows in p]
        cuts = np.cumsum(fields["level_nodes"])[:-1]
        for got, want in zip(np.split(fields["p"], cuts), p, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, want in zip(np.split(fields["q"], cuts[:-1]), q, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert fields["grid"].tobytes() == basis.grid_points.tobytes()
        noise = np.abs(fields["q"]).max(axis=(0, 2))
        if name == "two_noises":  # both q columns carry a field
            assert fields["q"].shape[1:] == (2, 25) and np.all(noise > 1e-3)
        if name == "rough_chain":  # q is all zeros, and the sign of each zero is kept
            assert fields["level_nodes"].tolist() == [1] * 9 and np.all(noise == 0)

    def test_the_written_scenario_and_the_rows_give_the_grid_values(self, tmp_path):
        # README's reconstruction: the basis of DIR/scenario.scn, flags
        # applied, takes the stored rows to the values at the stored grid
        run("solve", TINY, "--modes", "5", "--out", str(tmp_path))
        scenario, disc, _ = load_scenario(str(tmp_path / "scenario.scn"))
        basis = SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)
        with np.load(tmp_path / "fields.npz") as npz:
            p, q, grid = npz["p"], npz["q"], npz["grid"]
        assert p.tobytes() == np.concatenate(solved(str(tmp_path / "scenario.scn"))[0]
                                             .p.levels).tobytes()
        p_grid, q_grid = basis.reconstruct(p), basis.reconstruct(q)
        assert p_grid.shape == (1 + 2 + 4 + 8, 11) and q_grid.shape == (1 + 2 + 4, 1, 11)
        assert grid.tobytes() == basis.grid_points.tobytes()
        # each value is its row's trigonometric sum at its grid point
        assert np.allclose(p_grid, basis.evaluate_at(p, grid), rtol=0, atol=1e-12)
        assert np.allclose(q_grid, basis.evaluate_at(q, grid), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name, flags", [
        ("tiny", ("--steps", "1")),                         # q holds one level
        ("tiny", ("--branching", "3", "--steps", "2")),
        ("tiny", ("--theta", "0.5", "--modes", "2")),
        ("two_noises", ("--modes", "1", "--steps", "3")),
        ("rough_chain", ("--modes", "6", "--steps", "3"))])
    def test_fields_npz_follows_the_flags(self, tmp_path, name, flags):
        # the rows are those of the solve that DIR/scenario.scn reruns
        scn = {"tiny": TINY, "rough_chain": ROUGH}.get(name)
        if scn is None:
            scn = tmp_path / "two_noises.scn"
            scn.write_text(TWO_NOISES, encoding="utf-8")
        out = tmp_path / "out"
        assert run("solve", str(scn), *flags, "--out", str(out))[0] == 0
        with np.load(out / "fields.npz") as npz:
            fields = dict(npz)
        solution, basis = solved(str(out / "scenario.scn"))
        p, q = solution.p.levels, solution.q.levels
        steps = int(flags[flags.index("--steps") + 1]) if "--steps" in flags else 3
        assert len(fields["level_nodes"]) == steps + 1 == len(p) == len(q) + 1
        assert fields["level_nodes"].tolist() == [len(rows) for rows in p]
        assert fields["p"].tobytes() == np.concatenate(p).tobytes()
        assert fields["q"].tobytes() == np.concatenate(q).tobytes()
        assert fields["p"].shape == (sum(map(len, p)), basis.n_modes)
        dim_w = 2 if name == "two_noises" else 1
        assert fields["q"].shape == (sum(map(len, q)), dim_w, basis.n_modes)
        assert fields["grid"].tobytes() == basis.grid_points.tobytes()

    def test_readme_reconstruction_runs_as_written(self, tmp_path):
        # the README's code block, with DIR the output directory
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n")[1].split("```")[0]
        assert "DIR/fields.npz" in block and "reconstruct(f[\"p\"])" in block
        run("solve", TINY, "--out", str(tmp_path))
        names = {"bspde": bspde, "np": np}
        exec(block.replace("DIR", str(tmp_path)), names)
        names["f"].close()
        solution, basis = solved(TINY)
        want = basis.reconstruct(np.concatenate(solution.p.levels))
        assert names["p_grid"].shape == (1 + 2 + 4 + 8, basis.n_grid)
        assert names["p_grid"].tobytes() == want.tobytes()

    def test_a_failed_solve_writes_no_fields(self, tmp_path):
        # the singular step raises before anything is written: neither a new
        # directory nor a file in an old one
        assert run("solve", SINGULAR, "--out", str(tmp_path / "new"))[0] == 5
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "fields.npz").write_bytes(b"old\n")
        assert run("solve", SINGULAR, "--out", str(tmp_path / "old"))[0] == 5
        assert os.listdir(tmp_path / "old") == ["fields.npz"]
        assert (tmp_path / "old" / "fields.npz").read_bytes() == b"old\n"

    def test_no_temp_files_left(self, tmp_path, monkeypatch):
        run("solve", TINY, "--out", str(tmp_path))
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        # a binary writer that fails midway leaves the last run's file as it was
        before = (tmp_path / "fields.npz").read_bytes()

        def failing(solution, grid):
            def write(fh):
                fh.write(b"PK")
                raise OSError("disk full")
            return write
        monkeypatch.setattr("bspde.cli._fields_npz", failing)
        code, out, err = run("solve", TINY, "--out", str(tmp_path))
        assert code == 2 and err == "error: disk full\n"
        assert (tmp_path / "fields.npz").read_bytes() == before
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_failed_stream_leaves_the_existing_file_untouched(self, tmp_path):
        target = tmp_path / "fields.npz"
        target.write_bytes(b"old\n")

        def writer(fh):
            fh.write(b"PK\x03\x04")
            raise RuntimeError("writing failed")
        with pytest.raises(RuntimeError, match="writing failed"):
            _write_atomic(str(target), writer)
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["fields.npz"]  # no temporary file left

    def test_a_string_is_written_as_utf8(self, tmp_path):
        target = tmp_path / "scenario.scn"
        _write_atomic(str(target), "kappa = 0.3  # \u03ba\n")
        assert target.read_bytes() == "kappa = 0.3  # \u03ba\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["scenario.scn"]

    def test_a_failed_writer_makes_no_new_file(self, tmp_path):
        def writer(fh):
            fh.write(b"PK\x03\x04")
            raise OSError("disk full")
        with pytest.raises(OSError, match="disk full"):
            _write_atomic(str(tmp_path / "fields.npz"), writer)
        assert os.listdir(tmp_path) == []

    def test_an_interrupt_also_removes_the_temporary_file(self, tmp_path):
        target = tmp_path / "fields.npz"
        target.write_bytes(b"old\n")

        def writer(fh):
            fh.write(b"PK\x03\x04")
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            _write_atomic(str(target), writer)
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["fields.npz"]

    def test_audit_estimates_csv(self, tmp_path):
        code, _, _ = run("audit", TINY, "--out", str(tmp_path), "--estimate", "2.5")
        assert code == 0
        lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert lines[0] == "theorem_tag,lhs,rhs_data,fitted_C,passed"
        assert len(lines) == 2
        assert lines[1].startswith("weak_est_2_5,")

    def test_mollify_study_csv(self, tmp_path):
        code, out, _ = run("mollify-study", ROUGH, "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0] == "n,defect,relaxed_validate_ok"
        ns = [int(l.split(",")[0]) for l in lines[1:]]
        defects = [float(l.split(",")[1]) for l in lines[1:]]
        assert ns == [4, 8, 16]
        assert defects[0] > defects[1] > defects[2]
        assert all(l.endswith(",true") for l in lines[1:])
        assert "monotone_decreasing = True" in out

    def test_regress_summary(self):
        code, out, _ = run("regress", TINY, "--paths", "200")
        assert code == 0
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert lines["command"] == "regress"
        assert lines["paths"] == "200"
        # regression over 200 paths lands near the tree solve of the same file
        tree_p0 = 1.507607443948
        assert float(lines["p0_l2"]) == pytest.approx(tree_p0, rel=0.05)

    @pytest.mark.parametrize("flags, paths", [((), 256), (("--paths", "200"), 200)])
    def test_regress_manifest_records_the_paths_used(self, tmp_path, flags, paths):
        # tiny.scn sets no paths, so the default count runs
        code, out, _ = run("regress", TINY, *flags, "--out", str(tmp_path))
        assert code == 0 and f"paths = {paths}" in out.splitlines()
        assert json.loads((tmp_path / "manifest.json").read_text())["paths"] == paths


def synthetic_solution(node_counts, dim_w, n_modes, seed=0):
    """A solution-like object with random rows: p on every level, q on all
    levels but the last."""
    rng = np.random.default_rng(seed)
    p = [rng.standard_normal((n, n_modes)) for n in node_counts]
    q = [rng.standard_normal((n, dim_w, n_modes)) for n in node_counts[:-1]]
    return SimpleNamespace(p=SimpleNamespace(levels=p), q=SimpleNamespace(levels=q))


def written(solution, grid) -> bytes:
    buf = io.BytesIO()
    _fields_npz(solution, grid)(buf)
    return buf.getvalue()


# node counts per level, noises, modes
LAYOUTS = {"chain": ([1] * 5, 1, 3), "binary_tree": ([1, 2, 4, 8], 1, 5),
           "two_noises": ([1, 4, 16], 2, 9)}
GRID = np.linspace(-1.0, 1.0, 7)[:, None]


class TestFieldsNpz:
    """``_fields_npz`` streams each field level by level into one entry."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_each_entry_is_one_npy_of_its_rows(self, layout):
        solution = synthetic_solution(*LAYOUTS[layout])
        p = solution.p.levels
        want = {"p": np.concatenate(p), "q": np.concatenate(solution.q.levels),
                "level_nodes": np.array([len(rows) for rows in p]), "grid": GRID}
        with zipfile.ZipFile(io.BytesIO(written(solution, GRID))) as archive:
            assert archive.namelist() == [f"{name}.npy" for name in want]
            for name, array in want.items():
                fh = io.BytesIO(archive.read(f"{name}.npy"))
                assert np.lib.format.read_magic(fh) == (1, 0)
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
                assert (shape, fortran_order, dtype) == (array.shape, False, array.dtype)
                # the rows' bytes and nothing after them
                assert fh.read() == array.tobytes()

    def test_the_archive_is_stored_with_a_fixed_stamp(self):
        solution = synthetic_solution(*LAYOUTS["binary_tree"])
        with zipfile.ZipFile(io.BytesIO(written(solution, GRID))) as archive:
            assert archive.testzip() is None
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_STORED
                assert info.date_time == (1980, 1, 1, 0, 0, 0)
                assert info.compress_size == info.file_size

    def test_a_writer_writes_equal_bytes_each_call(self):
        solution = synthetic_solution(*LAYOUTS["two_noises"])
        write = _fields_npz(solution, GRID)
        first, second = io.BytesIO(), io.BytesIO()
        write(first)
        write(second)
        assert first.getvalue() == second.getvalue() == written(solution, GRID)

    @pytest.mark.parametrize("view", ["fortran", "every_other_row", "column_slice"])
    def test_rows_held_out_of_order_are_written_by_value(self, view):
        solution = synthetic_solution(*LAYOUTS["binary_tree"])
        p = solution.p.levels
        rows = p[2]
        if view == "fortran":
            held = np.asfortranarray(rows)
        elif view == "every_other_row":
            held = np.repeat(rows, 2, axis=0)[::2]
        else:
            held = np.concatenate([rows, rows], axis=1)[:, :rows.shape[1]]
        assert not held.flags.c_contiguous and np.array_equal(held, rows)
        want = written(solution, GRID)
        p[2] = held
        assert written(solution, GRID) == want

    def test_no_field_is_copied_whole(self, tmp_path):
        # 40 levels of 2000 rows: the writer's peak is about one level's
        # copy, far below the 20 MB of the whole p
        import tracemalloc
        rows = np.ones((2000, 32))
        solution = SimpleNamespace(p=SimpleNamespace(levels=[rows] * 40),
                                   q=SimpleNamespace(levels=[rows[:, None]] * 39))
        write = _fields_npz(solution, GRID)
        tracemalloc.start()
        try:
            with open(tmp_path / "fields.npz", "wb") as fh:
                write(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows.nbytes, peak
        with np.load(tmp_path / "fields.npz") as npz:
            assert npz["p"].shape == (80000, 32) and np.all(npz["p"] == 1.0)

    @pytest.mark.parametrize("field", ["p", "q"])
    def test_a_level_that_cannot_be_read_leaves_the_old_file(self, tmp_path, field):
        # the last level of p or q raises only once the levels before it are
        # in the archive
        class Unreadable:
            def __init__(self, rows):
                self.shape, self.dtype = rows.shape, rows.dtype

            def __len__(self):
                return self.shape[0]

            def __array__(self, *args, **kwargs):
                raise OSError("device lost")

        solution = synthetic_solution(*LAYOUTS["binary_tree"])
        levels = getattr(solution, field).levels
        levels[-1] = Unreadable(levels[-1])
        target = tmp_path / "fields.npz"
        target.write_bytes(b"old\n")
        with pytest.raises(OSError, match="device lost"):
            _write_atomic(str(target), _fields_npz(solution, GRID))
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["fields.npz"]
