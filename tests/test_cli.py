"""Command line interface: stdout contracts, exit codes, and artifacts."""

import importlib.metadata
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bspde
from bspde import (SchemeConfig, SpectralBasis, build_chain, build_tree, load_scenario,
                   solve_tree)
from bspde.cli import _fields_csv, _fmt, _fmt_bytes, _write_atomic, main
from helpers import fields_csv_reference, make_scenario

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
    ], ids=["audit-tiny", "positivity-tiny", "mollify-study-rough"])
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
        assert sorted(os.listdir(tmp_path)) == ["fields.csv", "manifest.json", "scenario.scn",
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

    def test_fields_csv_layout(self, tmp_path):
        run("solve", TINY, "--out", str(tmp_path))
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert lines[0] == "level,node,x1,p,q1"
        # levels 0..steps-1: 1 + 2 + 4 nodes, 9 grid points each
        assert len(lines) - 1 == 7 * 9
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        float(first[2]); float(first[3]); float(first[4])

    def test_fields_csv_matches_per_node_writer_on_tiny(self, tmp_path):
        run("solve", TINY, "--out", str(tmp_path))
        scenario, disc, cfg = load_scenario(TINY)
        tree = build_tree(scenario.dim_w, disc.steps, disc.branching, scenario.horizon)
        basis = SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)
        sol = solve_tree(scenario, tree, basis, SchemeConfig(theta=cfg.theta))
        want = fields_csv_reference(sol, tree, basis).encode("utf-8")
        assert (tmp_path / "fields.csv").read_bytes() == want

    def test_fields_csv_matches_per_node_writer_in_2d_with_two_noises(self):
        scenario = make_scenario(
            d=2, d1=2, sigma=0.2, nu=0.1, F=lambda t, X: np.cos(X[:, 0] - X[:, 1]),
            phi=lambda t, X, hist: (np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0])
                                    + 0.3 * np.sin(X[:, 1]) * hist.w[1]))
        tree = build_tree(2, 2, 2, scenario.horizon)
        basis = SpectralBasis(2, 2, np.pi)
        sol = solve_tree(scenario, tree, basis)
        text = "".join(_fields_csv(sol, tree, basis))
        assert text == fields_csv_reference(sol, tree, basis)
        lines = text.splitlines()
        assert lines[0] == "level,node,x1,x2,p,q1,q2"
        assert len(lines) - 1 == (1 + 4) * basis.n_grid
        # both q columns carry a nonzero field
        q = np.array([[float(v) for v in line.split(",")[-2:]] for line in lines[1:]])
        assert np.all(np.abs(q).max(axis=0) > 1e-3)

    def test_fields_csv_matches_per_node_writer_on_the_rough_chain(self):
        # a chain: q is all zeros, and the sign of each zero is kept
        scenario, disc, cfg = load_scenario(ROUGH)
        tree = build_chain(scenario.dim_w, disc.steps, scenario.horizon)
        basis = SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)
        sol = solve_tree(scenario, tree, basis, SchemeConfig(theta=cfg.theta))
        text = "".join(_fields_csv(sol, tree, basis))
        assert text == fields_csv_reference(sol, tree, basis)
        q = {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]}
        assert q == {"0.000000000000e+00"}

    @pytest.mark.parametrize("budget, block_lines", [
        (20, [18, 18, 18, 9]),        # two nodes a block: blocks end inside levels
        (5, [9] * 7)])                # fewer lines than a node: one node a block
    def test_fields_csv_blocks_hold_at_most_the_budget(self, monkeypatch, budget,
                                                       block_lines):
        monkeypatch.setattr("bspde.cli._BLOCK_LINES", budget)
        scenario, disc, cfg = load_scenario(TINY)
        tree = build_tree(scenario.dim_w, disc.steps, disc.branching, scenario.horizon)
        basis = SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)
        sol = solve_tree(scenario, tree, basis, SchemeConfig(theta=cfg.theta))
        assert basis.n_grid == 9 and tree.n_nodes - tree.levels[-1].n_nodes == 7
        header, *blocks = _fields_csv(sol, tree, basis)
        assert header + "".join(blocks) == fields_csv_reference(sol, tree, basis)
        counts = [block.count("\n") for block in blocks]
        assert counts == block_lines
        assert all(n <= budget or n == basis.n_grid for n in counts)

    def test_no_temp_files_left(self, tmp_path):
        run("solve", TINY, "--out", str(tmp_path))
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_failed_stream_leaves_the_existing_file_untouched(self, tmp_path):
        target = tmp_path / "fields.csv"
        target.write_text("old\n")

        def chunks():
            yield "level,node\n"
            raise RuntimeError("formatting failed")
        with pytest.raises(RuntimeError, match="formatting failed"):
            _write_atomic(str(target), chunks())
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["fields.csv"]  # no temporary file left

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


def formatted(values) -> list[str]:
    """``_fmt_bytes`` of ``values`` as one string per value."""
    rows = _fmt_bytes(np.asarray(values, dtype=float))
    text = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return text[text != 0].tobytes().decode("ascii").splitlines()


class TestFieldsFormatter:
    """``_fmt_bytes`` writes the bytes of ``_fmt`` for every float64."""

    @pytest.mark.parametrize("x", [
        0.0, -0.0,
        1234567890123.5, 1234567890124.5,           # exact ties of the 13th digit
        9.9999999999995, 9.99999999999949,          # the carry into the next decade
        9.9999999999995e99,                         # two exponent digits to three
        5e-324, 1.7976931348623157e308, 1e22, 1e23,
        9.999999999999347e279,                      # log10 rounds up to 280
        float("inf"), float("-inf"), float("nan")])
    def test_edge_values(self, x):
        assert formatted([x]) == [_fmt(x)]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_floats_together(self, xs):
        assert formatted(xs) == [_fmt(x) for x in xs]

    def test_a_million_random_bit_patterns(self):
        rng = np.random.default_rng(20261019)
        values = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64).view(np.float64)
        assert formatted(values) == [_fmt(x) for x in values.tolist()]
