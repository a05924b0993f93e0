"""Scenario file parsing, validation hand-off, and round-tripping."""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bspde import (
    EvalError,
    MollifierConfig,
    ParseError,
    PathHistory,
    ScenarioValidationError,
    SpectralBasis,
    StructuralError,
    freeze,
    load_scenario,
    load_scenario_text,
    mollify,
    serialize_scenario,
)
from helpers import make_scenario

DATA = Path(__file__).parent / "data"
TINY_TEXT = (DATA / "tiny.scn").read_text(encoding="utf-8")
MINIMAL = """[problem]
d = 1
d1 = 1
T = 0.5
L = 3.141592653589793
K = 2.0
kappa = 0.25

[coefficients]
a = 0.5

[data]
phi = cos(x1)
"""

# a 2-d MINIMAL whose a is a matrix literal written over lines 10 and 11
TWO_ROWS = MINIMAL.replace("\nd = 1\n", "\nd = 2\n").replace(
    "a = 0.5\n", "a = [[0.5, 0.0],\n     [0.0, 0.5]]\n")
# MINIMAL whose phi is written over lines 13 to 15
THREE_LINES = MINIMAL.replace("phi = cos(x1)",
                              "phi = cos(x1) +\n      0.5*sin(x1) +\n      0.25")


class TestMinimalFile:
    def test_scenario_fields(self):
        sc, disc, run = load_scenario_text(MINIMAL)
        assert sc.dim_x == 1 and sc.dim_w == 1
        assert sc.horizon == 0.5
        assert sc.domain_halfwidth == pytest.approx(np.pi)
        assert sc.bound_K == 2.0 and sc.ellipticity_kappa == 0.25
        assert sc.form == "non_divergence"
        x = np.array([[0.0], [1.0]])
        assert np.allclose(sc.phi.evaluate(0.0, x), np.cos(x[:, 0]))
        # omitted coefficients default to zero
        assert not sc.b.evaluate(0.0, x).any()
        assert not sc.F.evaluate(0.0, x).any()

    def test_discretization_defaults(self):
        _, disc, run = load_scenario_text(MINIMAL)
        assert (disc.modes, disc.steps, disc.branching) == (8, 8, 2)
        assert disc.paths is None and disc.seed == 0
        assert run.theta == 1.0 and run.tol == 1e-6

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "heat.scn"
        p.write_text(MINIMAL)
        sc, disc, run = load_scenario(p)
        assert sc.horizon == 0.5

    def test_deterministic_flag(self):
        sc, _, _ = load_scenario_text(MINIMAL)
        assert sc.is_deterministic


class TestCoefficientForms:
    def test_scalar_fills_diagonal_in_2d(self):
        text = MINIMAL.replace("d = 1", "d = 2").replace("phi = cos(x1)",
                                                         "phi = cos(x1)*cos(x2)")
        sc, _, _ = load_scenario_text(text)
        a = sc.a.evaluate(0.0, np.zeros((1, 2)))[0]
        assert np.allclose(a, 0.5 * np.eye(2))

    def test_matrix_literal_with_function_commas(self):
        text = MINIMAL.replace("d = 1", "d = 2").replace(
            "a = 0.5",
            "a = [[0.5, min(0.1, 0.2)], [max(0.1, 0.05), 0.5]]",
        ).replace("phi = cos(x1)", "phi = cos(x1)*cos(x2)")
        sc, _, _ = load_scenario_text(text)
        a = sc.a.evaluate(0.0, np.zeros((1, 2)))[0]
        assert np.allclose(a, [[0.5, 0.1], [0.1, 0.5]])

    def test_space_dependent_expression(self):
        text = MINIMAL.replace("a = 0.5", "a = 0.5 + 0.1*sin(x1)")
        sc, _, _ = load_scenario_text(text)
        x = np.array([[0.0], [np.pi / 2]])
        a = sc.a.evaluate(0.0, x)[:, 0, 0]
        assert np.allclose(a, [0.5, 0.6])

    def test_wiener_variable_makes_field_adapted(self):
        text = MINIMAL.replace("phi = cos(x1)", "phi = cos(x1) + 0.2*w1")
        sc, _, _ = load_scenario_text(text)
        assert not sc.is_deterministic
        with pytest.raises(ValueError, match="history"):
            sc.phi.evaluate(0.5, np.zeros((1, 1)))

    def test_constant_folding(self):
        text = MINIMAL.replace("phi = cos(x1)", "phi = 1 + 2*3")
        sc, _, _ = load_scenario_text(text)
        assert sc.phi.is_constant
        assert np.allclose(sc.phi.evaluate(0.0, np.zeros((4, 1))), 7.0)


class TestRunSection:
    def test_run_values(self):
        text = MINIMAL + "\n[run]\ntheta = 0.5\ntol = 1e-8\nsmoothing = 2, 8,16\n"
        _, _, run = load_scenario_text(text)
        assert (run.theta, run.tol, run.smoothing) == (0.5, 1e-8, (2, 8, 16))

    @pytest.mark.parametrize("smoothing", [(4, 8, 16), (3,), (12, 5)])
    def test_smoothing_round_trips(self, smoothing):
        sc, disc, run = load_scenario_text(MINIMAL)
        assert run.smoothing == (4, 8, 16)  # no [run] smoothing: the default
        run = replace(run, smoothing=smoothing)
        out = serialize_scenario(sc, disc, run)
        assert "\nsmoothing = " in out
        assert load_scenario_text(out)[2] == run

    def test_discretization_ints(self):
        text = MINIMAL + "\n[discretization]\nmodes = 12\nsteps = 6\nbranching = 3\npaths = 500\nseed = 9\n"
        _, disc, _ = load_scenario_text(text)
        assert (disc.modes, disc.steps, disc.branching) == (12, 6, 3)
        assert disc.paths == 500 and disc.seed == 9


class TestParseErrors:
    def test_missing_problem_section(self):
        with pytest.raises(ParseError, match=r"\[problem\]"):
            load_scenario_text("[coefficients]\na = 0.5\n[data]\nphi = 0\n")

    def test_unknown_problem_key(self):
        text = MINIMAL.replace("kappa = 0.25", "kappa = 0.25\nbogus = 3")
        with pytest.raises(ParseError, match="bogus"):
            load_scenario_text(text)

    def test_unknown_coefficient_key(self):
        text = MINIMAL.replace("a = 0.5", "a = 0.5\nzeta = 1")
        with pytest.raises(ParseError, match="zeta"):
            load_scenario_text(text)

    def test_bad_number(self):
        with pytest.raises(ParseError, match="problem.T"):
            load_scenario_text(MINIMAL.replace("T = 0.5", "T = abc"))

    @pytest.mark.parametrize("text, line, column, name", [
        (MINIMAL + "[discretization]\nmodes = 4x\n", 15, 9, "discretization.modes"),
        (MINIMAL + "[discretization]\nsteps = 8\n\n[run]  # options\ntheta =   half\n",
         18, 11, "run.theta"),
        (MINIMAL.replace("T = 0.5", "T = abc"), 4, 5, "problem.T"),
        (MINIMAL.replace("kappa = 0.25", "kappa = 0.25\nbogus = 1"), 8, 1, "bogus"),
        (MINIMAL + "[discretization]\nsteps = 8\nfoo = 2\n", 16, 1, "foo"),
        (MINIMAL + "[run]\ntheta = 0.5\nthetaa = 1.0\n", 16, 1, "thetaa"),
        ("# heat\n" + MINIMAL.replace("kappa = 0.25\n", ""), 2, 1, "missing 'kappa'"),
        (MINIMAL.replace("a = 0.5", ""), 9, 1, r"\[coefficients\] is missing 'a'"),
        (MINIMAL.replace("phi = cos(x1)", ""), 12, 1, r"\[data\] is missing 'phi'"),
        (MINIMAL.replace("phi = cos(x1)", "phi = cos(y9)"), 13, 11, "y9"),
        (MINIMAL.replace("phi = cos(x1)", "phi =  1 +"), 13, 11, "end of input"),
        (MINIMAL.replace("a = 0.5", "a = [[0.5 + y2]]"), 10, 13, "y2"),
        (MINIMAL.replace("a = 0.5", "a = [[0.5, 0.1]]"), 10, 5, "literal has shape"),
        (MINIMAL.replace("a = 0.5", "a = [0.5"), 10, 5, "not a bracketed literal"),
        (MINIMAL + "[run]\nsmoothing = 4,x\n", 15, 13, "run.smoothing"),
        (MINIMAL + "[run]\nsmoothing = ,\n", 15, 13, "run.smoothing"),
        (MINIMAL + "[run]\nsmoothing = 0,4\n", 15, 13, "run.smoothing: '0,4'"),
        (MINIMAL + "[run]\nsmoothing =  4,8,4\n", 15, 14, "run.smoothing: '4,8,4'"),
        (MINIMAL.replace("kappa = 0.25", "kappa = 0.25\nform = divergnce"), 8, 8,
         "problem.form"),
        # a misspelt section would be read as absent, and [DEFAULT] keys would
        # leak into every section
        (TINY_TEXT.replace("[discretization]", "[discretisation]"), 22, 1,
         r"unknown section \[discretisation\]"),
        (TINY_TEXT + "[DEFAULT]\nmodes = 8\n", 31, 1, r"unknown section \[DEFAULT\]"),
        # the indented second row continues a's value: it opens no section
        (TWO_ROWS.replace("]]\n", "]]\nb = [0.1, 0.1x]\n"), 12, 14, "unexpected token 'x'"),
        (TWO_ROWS.replace("]]\n", "]]\nzeta = 1\n"), 12, 1, "zeta"),
        # every line of a value keeps its place, so a bad token is named where it stands
        (MINIMAL.replace("phi = cos(x1)", "phi = cos(x1) +\n      2 $ 1"), 14, 9,
         r"unexpected character '\$'"),
        (TWO_ROWS.replace("0.5]]", "0.5x]]"), 11, 15, "unexpected token 'x'"),
        (TWO_ROWS.replace("[[0.5,", "[[0.5x,"), 10, 10, "unexpected token 'x'"),
        (THREE_LINES.replace("cos(x1) +", "cos(x1)$ +"), 13, 14, r"'\$'"),
        (THREE_LINES.replace("sin(x1) +", "sin(x1)$ +"), 14, 18, r"'\$'"),
        (THREE_LINES.replace("      0.25", "      0.25$"), 15, 11, r"'\$'"),
        (TWO_ROWS.replace("0.0],\n", "0.0],\n# the second row\n").replace("0.5]]", "0.5x]]"),
         12, 15, "unexpected token 'x'"),
        (TWO_ROWS.replace("0.0],\n", "0.0],\n\n").replace("0.5]]", "0.5x]]"),
         12, 15, "unexpected token 'x'"),
        # lines the reader refuses
        (MINIMAL.replace("a = 0.5\n", "a = 0.5\nb [0.1]\n"), 11, 1, "'key = value'"),
        (MINIMAL.replace("a = 0.5\n", "a = 0.5\nb: [0.1]\n"), 11, 1, "'key = value'"),
        (MINIMAL.replace("a = 0.5\n", "a = 0.5\na = 0.6\n"), 11, 1, "gives 'a' twice"),
        (MINIMAL + "[data]\nF = 1\n", 14, 1, r"section \[data\] is given twice"),
        ("d = 1\n" + MINIMAL, 1, 1, "precedes every section"),
        # a header is the whole line: text after its ``]`` is no section
        (MINIMAL + "[run] junk\ntheta = 0.5\n", 14, 1, r"got '\[run\] junk'"),
        (MINIMAL + "[x] = 5\n", 14, 1, r"unknown \[data\] keys: \['\[x\]'\]"),
        (MINIMAL + "[DEFAULT]\nmodes = 8\n", 14, 1, r"unknown section \[DEFAULT\]"),
        # only an expression goes on over more lines: another value is refused
        # where its second line's text starts
        (TINY_TEXT.replace("T = 0.5\n", "T = 0.5\n   0\n"), 6, 4, r"problem\.T: '0\.5\\n   0'"),
        (TINY_TEXT.replace("T = 0.5\n", "T = 0.5\n\n   0\n"), 7, 4, r"problem\.T"),
        (TINY_TEXT.replace("form = non_divergence\n", "form = non_divergence\n   x\n"),
         10, 4, r"problem\.form"),
        (MINIMAL + "[run]\nsmoothing = 4,\n   8\n", 16, 4, r"run\.smoothing"),
        # an unknown key is placed at its own column
        (TINY_TEXT.replace("[run]\n", "[run]\n    zeta = 1\n"), 29, 5, r"\['zeta'\]"),
    ])
    def test_bad_value_names_its_own_line(self, text, line, column, name):
        assert MINIMAL.count("\n") == 13 and TINY_TEXT.count("\n") == 30
        with pytest.raises(ParseError, match=name) as caught:
            load_scenario_text(text)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_a_continued_expression_loads(self):
        scn = load_scenario_text(MINIMAL.replace("a = 0.5\n", "a = 0.5\nc = 0.1\n  + 0.2\n"))[0]
        assert scn.c.value == 0.1 + 0.2

    def test_unknown_expression_variable(self):
        text = MINIMAL.replace("phi = cos(x1)", "phi = cos(y9)")
        with pytest.raises(ParseError, match="y9"):
            load_scenario_text(text)

    def test_unknown_data_key(self):
        text = MINIMAL.replace("phi = cos(x1)", "psi = 1")
        with pytest.raises(ParseError):
            load_scenario_text(text)


class TestValidationHandoff:
    def breaking(self):
        # sigma sigma^T = 1 swallows 2a = 1 entirely: margin -kappa
        return MINIMAL.replace("a = 0.5", "a = 0.5\nsigma = [[1.0]]")

    def test_lenient_load_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sc, _, _ = load_scenario_text(self.breaking())
        assert sc is not None
        msgs = [str(w.message) for w in caught]
        assert any("standing-assumption audit" in m for m in msgs)

    @pytest.mark.parametrize("by_path", [True, False], ids=["load_scenario",
                                                             "load_scenario_text"])
    def test_lenient_warning_names_the_callers_file(self, by_path, tmp_path):
        path = tmp_path / "breaking.scn"
        path.write_text(self.breaking())
        with pytest.warns(UserWarning, match="standing-assumption audit") as record:
            if by_path:
                load_scenario(path)
            else:
                load_scenario_text(self.breaking())
        assert record[0].filename == __file__

    def test_strict_load_raises_with_report(self):
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario_text(self.breaking(), strict=True)
        assert exc.value.report is not None
        assert not exc.value.report.superparabolic_ok

    def test_clean_file_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_scenario_text(MINIMAL)
        assert not [w for w in caught if "audit" in str(w.message)]


class TestRoundTrip:
    def test_constant_scenario(self):
        sc = make_scenario(b=0.2, c=0.1, sigma=0.3, nu=0.05, kappa=0.2)
        text = serialize_scenario(sc)
        sc2, _, _ = load_scenario_text(text)
        x = np.linspace(-2, 2, 5).reshape(-1, 1)
        for name in ("a", "b", "c", "sigma", "nu", "F", "phi"):
            v1 = getattr(sc, name).evaluate(0.3, x)
            v2 = getattr(sc2, name).evaluate(0.3, x)
            assert np.allclose(v1, v2, atol=1e-12), name
        assert sc2.bound_K == sc.bound_K
        assert sc2.ellipticity_kappa == sc.ellipticity_kappa

    def test_expression_scenario_preserves_sources(self):
        text = MINIMAL.replace("a = 0.5", "a = 0.5 + 0.1*sin(x1)")
        sc, disc, run = load_scenario_text(text)
        out = serialize_scenario(sc, disc, run)
        sc2, disc2, run2 = load_scenario_text(out)
        x = np.linspace(-3, 3, 9).reshape(-1, 1)
        assert np.allclose(sc.a.evaluate(0.1, x), sc2.a.evaluate(0.1, x), atol=1e-12)
        assert np.allclose(sc.phi.evaluate(0.5, x), sc2.phi.evaluate(0.5, x), atol=1e-12)
        assert disc2 == disc
        assert run2.theta == run.theta and run2.tol == run.tol

    ROUGH = MINIMAL.replace("a = 0.5", "a = 0.6 + 0.1*abs(sin(x1))")

    def test_replaced_field_drops_its_source_text(self):
        # the mollified and frozen a are functions with no expression: writing
        # the original text would silently undo them
        sc, _, _ = load_scenario_text(self.ROUGH)
        basis = SpectralBasis(1, 8, sc.domain_halfwidth)
        for changed in (mollify(sc, MollifierConfig(2), basis), freeze(sc, np.zeros(1))):
            assert "a" not in changed.sources and "phi" in changed.sources
            with pytest.raises(StructuralError, match="'a'"):
                serialize_scenario(changed)

    def test_with_fields_keeps_the_source_of_unchanged_fields(self):
        sc, _, _ = load_scenario_text(self.ROUGH)
        div = sc.with_fields(form="divergence", phi=sc.phi)
        assert div.sources == sc.sources
        sc2, _, _ = load_scenario_text(serialize_scenario(div))
        assert sc2.form == "divergence"
        x = np.linspace(-3, 3, 9).reshape(-1, 1)
        assert np.array_equal(sc.a.evaluate(0.1, x), sc2.a.evaluate(0.1, x))

    # every file that loads, and one with a value over two lines
    LOADING = {"two-rows": TWO_ROWS, **{
        path.name: path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.scn"))
        if path.name != "bad_parse.scn"}}

    @pytest.mark.parametrize("name", LOADING)
    def test_reload_keeps_the_sources_and_the_scenario(self, name):
        text = self.LOADING[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bad_valid.scn fails the audit
            sc, disc, run = load_scenario_text(text)
            sc2, disc2, run2 = load_scenario_text(serialize_scenario(sc, disc, run))
        assert sc2.sources == sc.sources and (disc2, run2) == (disc, run)
        names = ("dim_x", "dim_w", "horizon", "domain_halfwidth", "bound_K",
                 "ellipticity_kappa", "form")
        assert [getattr(sc2, n) for n in names] == [getattr(sc, n) for n in names]
        x = np.linspace(-1, 1, 3 * sc.dim_x).reshape(3, sc.dim_x)
        hist = PathHistory.from_increments(np.full((2, sc.dim_w), 0.3), dt=0.25)
        for field in ("a", "b", "c", "sigma", "nu", "F", "phi"):
            f, f2 = getattr(sc, field), getattr(sc2, field)
            assert f2.reads == f.reads
            assert np.array_equal(f2.evaluate(0.5, x, hist), f.evaluate(0.5, x, hist)), field

    def test_eval_error_span_is_measured_from_the_start_of_the_entry(self):
        text = TWO_ROWS.replace("0.5]]\n", "0.5]]\nb = [0.1,\n     0.2 + 1/(t - 2)]\n")
        sc, _, _ = load_scenario_text(text)
        with pytest.raises(EvalError, match="division by zero") as caught:
            sc.b.evaluate(2.0, np.zeros((1, 2)))
        assert "0.2 + 1/(t - 2)"[slice(*caught.value.span)] == "1/(t - 2)"

    def test_adapted_scenario_round_trip(self):
        from bspde import PathHistory
        text = MINIMAL.replace("phi = cos(x1)", "phi = cos(x1) + 0.2*w1")
        sc, disc, run = load_scenario_text(text)
        sc2, _, _ = load_scenario_text(serialize_scenario(sc, disc, run))
        hist = PathHistory.from_increments(np.array([[0.3], [0.1]]), dt=0.25)
        x = np.zeros((2, 1))
        assert np.allclose(sc.phi.evaluate(0.5, x, history=hist),
                           sc2.phi.evaluate(0.5, x, history=hist), atol=1e-12)
