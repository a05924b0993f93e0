"""Coefficient fields, scenario construction, and the standing-assumption audit."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bspde import (
    default_modulus,
    CoefficientField,
    LevelFields,
    MollifierConfig,
    ModulusOfContinuity,
    PathHistory,
    Scenario,
    SchemeConfig,
    StructuralError,
    SpectralBasis,
    backward_solve,
    build_tree,
    freeze,
    load_scenario,
    load_scenario_text,
    mollify,
    solve_tree,
    validate,
)
from bspde.analysis import _kernel_shifts
from bspde.frozen import _combination, _frozen_field
from bspde.scenario import _sample_points
from helpers import (MARKOV_2D_TEXT, declared_time_dependent, make_field, make_scenario,
                     markov_scenario)

DATA = Path(__file__).parent / "data"


class TestCoefficientField:
    def test_constant_shape_mismatch(self):
        with pytest.raises(StructuralError):
            CoefficientField.constant(np.eye(2), shape=(3, 3))

    def test_constant_evaluate_broadcasts_over_points(self):
        f = CoefficientField.constant(np.eye(2))
        out = f.evaluate(0.0, np.zeros((5, 2)))
        assert out.shape == (5, 2, 2)
        assert np.array_equal(out[3], np.eye(2))

    def test_of_tx_shape(self):
        f = CoefficientField.of_tx(lambda t, X: np.sin(X[:, 0]), shape=())
        x = np.linspace(-1.0, 1.0, 7).reshape(-1, 1)
        out = f.evaluate(0.0, x)
        assert out.shape == (7,)
        assert np.allclose(out, np.sin(x[:, 0]))

    def test_adapted_requires_history(self):
        f = CoefficientField.adapted(lambda t, X, hist: X[:, 0] * hist.w[0], shape=())
        with pytest.raises(ValueError, match="history"):
            f.evaluate(0.5, np.zeros((3, 1)))

    def test_adapted_history_coverage(self):
        f = CoefficientField.adapted(lambda t, X, hist: X[:, 0] + hist.w[0], shape=())
        hist = PathHistory.from_increments(np.array([[0.1], [0.2]]), dt=0.25)
        out = f.evaluate(0.5, np.zeros((2, 1)), history=hist)
        assert np.allclose(out, 0.1 + 0.2)
        with pytest.raises(ValueError, match="covers"):
            f.evaluate(0.9, np.zeros((2, 1)), history=hist)

    def test_zero_field(self):
        f = CoefficientField.zero((2, 1))
        out = f.evaluate(0.0, np.zeros((4, 2)))
        assert out.shape == (4, 2, 1)
        assert not out.any()


def _tx(t, X):
    return np.cos(X[:, 0])


def _txh(t, X, history):
    return np.cos(X[:, 0])


class TestReads:
    """What a field reads besides x, and the three facts derived from it."""

    # (field, reads, is_deterministic, markov, t_free)
    CONSTRUCTORS = {
        "constant": (CoefficientField.constant(0.5), set(), True, False, True),
        "zero": (CoefficientField.zero((2, 2)), set(), True, False, True),
        "of_tx": (CoefficientField.of_tx(_tx), {"t"}, True, False, False),
        "of_tx-t_free": (CoefficientField.of_tx(_tx, (), t_free=True), set(), True, False, True),
        "adapted": (CoefficientField.adapted(_txh), {"t", "history"}, False, False, False),
        "adapted-t_free": (CoefficientField.adapted(_txh, (), t_free=True), {"history"},
                           False, False, True),
        "adapted-markov": (CoefficientField.adapted(_txh, (), markov=True), {"t", "w"},
                           False, True, False),
        "adapted-markov-t_free": (CoefficientField.adapted(_txh, (), True, True), {"w"},
                                  False, True, True),
        "default": (CoefficientField((), fn=_txh), {"t", "history"}, False, False, False),
        # a field given a value and no reads is a constant; a stated reads is kept
        "value": (CoefficientField((), value=np.array(0.1)), set(), True, False, True),
        "value-reads": (CoefficientField((), value=np.array(0.1), reads=frozenset({"t"})),
                        {"t"}, True, False, False),
    }

    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_constructor_declares_reads(self, name):
        field_, reads, deterministic, markov, t_free = self.CONSTRUCTORS[name]
        assert field_.reads == reads
        assert (field_.is_deterministic, field_.markov, field_.t_free) == (
            deterministic, markov, t_free)

    @pytest.mark.parametrize("expression, reads", [
        ("cos(x1)", set()), ("t*x1", {"t"}), ("sin(w1)", {"w"}), ("t*w1", {"t", "w"}),
        ("2*3", set())])
    def test_parser_declares_the_names_an_entry_uses(self, expression, reads):
        text = TestMarkovDeclaration.TEXT.replace("phi = 1 + 0.2*w1", f"phi = {expression}")
        assert load_scenario_text(text)[0].phi.reads == reads

    def test_derived_reads_the_union_of_its_inputs(self):
        w = CoefficientField.adapted(_txh, (), markov=True, t_free=True)
        history = CoefficientField.adapted(_txh, (), t_free=True)
        derived = CoefficientField.derived(_txh, (), w, history)
        assert derived.reads == {"w", "history"}
        assert not (derived.is_deterministic or derived.markov) and derived.t_free
        assert CoefficientField.derived(_txh, (), w, w).reads == {"w"}

    def test_unknown_read_is_refused(self):
        with pytest.raises(StructuralError, match="reads only"):
            CoefficientField((), fn=_txh, reads=frozenset({"x"}))


class TestMarkovDeclaration:
    """Parsed fields are Markov; a derived field is Markov when all its inputs are."""

    TEXT = """
[problem]
d = 1
d1 = 1
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
[coefficients]
a = 0.6 + 0.1*sin(x1 + w1)
sigma = [[0.3 + 0.05*cos(w1)]]
[data]
F = cos(x1)
phi = 1 + 0.2*w1
"""

    @staticmethod
    def fields():
        scn = load_scenario_text(TestMarkovDeclaration.TEXT)[0]
        path = CoefficientField.adapted(
            lambda t, X, hist: 0.5 + 0.0 * X[:, 0] + 0.1 * hist.increments.sum(),
            ())
        return scn, path

    def test_parsed_adapted_fields_are_markov(self):
        scn, path = self.fields()
        assert scn.a.markov and scn.sigma.markov and scn.phi.markov
        assert not scn.F.markov and scn.F.is_deterministic
        assert not path.markov  # a library callable keeps the safe default

    def test_frozen_and_mollified_fields_keep_the_declaration(self):
        scn, path = self.fields()
        x0 = np.zeros(1)
        assert _frozen_field(scn.a, x0).markov
        assert not _frozen_field(path, x0).markov
        basis = SpectralBasis(1, 4, np.pi)
        path_a = CoefficientField.adapted(
            lambda t, X, hist: (0.6 + 0.0 * X[:, 0]
                                + 0.01 * hist.increments.sum())[:, None, None],
            (1, 1))
        assert mollify(scn, MollifierConfig(1), basis).a.markov
        assert not mollify(scn.with_fields(a=path_a), MollifierConfig(1), basis).a.markov

    def test_difference_and_blend_need_every_input_markov(self):
        scn, path = self.fields()
        det = CoefficientField.of_tx(lambda t, X: np.cos(X[:, 0]), ())
        const = CoefficientField.constant(0.5)
        for markov_input in (scn.phi, _frozen_field(scn.phi, np.zeros(1))):
            for other in (markov_input, det, const):
                assert _combination(-1.0, other, 1.0, markov_input).markov
                assert _combination(0.5, markov_input, 0.5, other).markov
            assert not _combination(-1.0, path, 1.0, markov_input).markov
            assert not _combination(0.5, markov_input, 0.5, path).markov
        assert not _combination(-1.0, det, 1.0, path).markov
        assert not _combination(0.5, const, 0.5, path).markov

    def test_derived_kind_and_markov_follow_the_inputs(self):
        scn, path = self.fields()
        det = CoefficientField.of_tx(lambda t, X: np.cos(X[:, 0]), ())
        const = CoefficientField.constant(0.5)
        # (inputs, is_deterministic, markov) of the derived field
        cases = [((), True, False), ((const,), True, False), ((const, det), True, False),
                 ((scn.phi,), False, True), ((scn.phi, det), False, True),
                 ((const, scn.phi), False, True), ((path,), False, False),
                 ((scn.phi, path), False, False), ((det, path), False, False)]
        X = np.linspace(-1.0, 1.0, 5)[:, None]
        hist = PathHistory.from_increments(np.array([[0.3], [-0.1]]), 0.25)
        for inputs, deterministic, markov in cases:
            seen = []

            def fn(t, X, states, inputs=inputs):
                seen.append(states)
                return sum((f.evaluate_states(t, X, states) for f in inputs),
                           np.zeros((len(states), len(X))))
            derived = CoefficientField.derived(fn, (), *inputs)
            assert not derived.is_constant
            assert (derived.is_deterministic, derived.markov) == (deterministic, markov)
            got = derived.evaluate(0.5, X, hist)
            want = sum((f.evaluate(0.5, X, hist) for f in inputs), np.zeros(len(X)))
            assert got.tobytes() == want.tobytes()
            # a deterministic result is read in one state with no Wiener value,
            # a Markov one on the history's w alone, any other on the history
            (states,) = seen
            if deterministic:
                assert isinstance(states, np.ndarray) and states.shape == (1, 0)
            elif markov:
                assert states.shape == (1, 1) and states.tobytes() == hist.w.tobytes()
            else:
                assert len(states) == 1 and states[0] is hist


class TestBatchedReads:
    """A field's read of k states at once equals its read at each state's
    history, bit for bit."""

    NAMES = ("a", "b", "c", "sigma", "nu", "F", "phi")

    @staticmethod
    def states(dim_w, k=7):
        """k Wiener values with repeats and both zeros, and a history for each."""
        rng = np.random.default_rng(11)
        W = np.round(rng.normal(size=(k, dim_w)), 3)
        W[0], W[1], W[3] = 0.0, -0.0, W[2]
        hists = [PathHistory(0.25, 0.25, w[None], w) for w in W]
        assert all(h.w.tobytes() == w.tobytes() for h, w in zip(hists, W))
        return W, hists

    @classmethod
    def assert_reads_bit_equal(cls, field_, dim_w, X, t=0.25):
        W, hists = cls.states(dim_w)
        got = field_.evaluate_states(t, X, W)
        assert got.shape == (len(W), len(X)) + field_.shape
        for row, h in zip(got, hists):
            assert row.tobytes() == field_.evaluate(t, X, h).tobytes()
        assert field_.evaluate_states(t, X, hists).tobytes() == got.tobytes()

    @staticmethod
    def scenarios():
        yield pytest.param(markov_scenario(1), id="d1-dw1")
        yield pytest.param(markov_scenario(2), id="d1-dw2")
        yield pytest.param(load_scenario_text(MARKOV_2D_TEXT)[0], id="d2-dw2")

    @pytest.mark.parametrize("scn", scenarios())
    def test_file_fields(self, scn):
        X = _sample_points(scn)[1]
        markov = [n for n in self.NAMES if getattr(scn, n).markov]
        assert {len(getattr(scn, n).shape) for n in markov} == {0, 1, 2}
        for name in self.NAMES:
            self.assert_reads_bit_equal(getattr(scn, name), scn.dim_w, X)

    @pytest.mark.parametrize("scn", scenarios())
    def test_frozen_and_combined_fields(self, scn):
        X = _sample_points(scn)[1]
        frozen = freeze(scn, np.full(scn.dim_x, 0.4))
        det = CoefficientField.of_tx(lambda t, X: np.cos(X[:, 0]) + t, ())
        for f, f0 in ((scn.a, frozen.a), (scn.sigma, frozen.sigma)):
            for derived in (f0, _combination(-1.0, f0, 1.0, f), _combination(0.3, f0, 0.7, f)):
                assert derived.markov
                self.assert_reads_bit_equal(derived, scn.dim_w, X)
        self.assert_reads_bit_equal(_combination(0.5, det, 0.5, scn.F), scn.dim_w, X)

    @pytest.mark.parametrize("scn", scenarios())
    def test_mollified_fields(self, scn):
        basis = SpectralBasis(scn.dim_x, 4, scn.domain_halfwidth)
        smooth = mollify(scn, MollifierConfig(1), basis)
        for X in (basis.grid_points, _sample_points(scn)[1]):  # on and off the grid
            for name in ("a", "sigma"):
                assert getattr(smooth, name).markov
                self.assert_reads_bit_equal(getattr(smooth, name), scn.dim_w, X)

    @staticmethod
    def path_scenario(dim_w):
        """The Markov scenario with a, sigma and F library fields that read the
        history's increments, and six histories at t = 0.75 whose increments
        differ where their w agree (multiples of 1/4, so every sum is exact)."""
        scn = markov_scenario(dim_w).with_fields(
            a=CoefficientField.adapted(
                lambda t, X, h: (0.6 + 0.1 * np.sin(X[:, 0] + h.increments[-1, 0])
                                 + 0.01 * t)[:, None, None], (1, 1)),
            sigma=CoefficientField.adapted(
                lambda t, X, h: 0.2 + 0.05 * np.cos(X[:, 0, None] + h.increments[-1])[:, None, :],
                (1, dim_w)),
            F=CoefficientField.adapted(
                lambda t, X, h: np.cos(X[:, 0]) * (1 + h.increments[0, 0]), ()))
        incs = np.random.default_rng(12).integers(-4, 5, size=(6, 3, dim_w)) / 4
        incs[0], incs[2], incs[4] = 0.0, incs[1][::-1], incs[3][[1, 2, 0]]
        return scn, [PathHistory.from_increments(inc, 0.25) for inc in incs]

    @staticmethod
    def assert_rows_bit_equal(field_, X, hists, parent, t=0.5):
        """Each row of ``evaluate_states`` at the histories is the field's read
        at that history and ``parent``, the per-history formula, bit for bit."""
        assert not (field_.markov or field_.is_deterministic)
        got = field_.evaluate_states(t, X, hists)
        assert got.shape == (len(hists), len(X)) + field_.shape
        for row, h in zip(got, hists):
            assert row.tobytes() == field_.evaluate(t, X, h).tobytes()
            assert row.tobytes() == np.asarray(parent(t, X, h), dtype=float).tobytes()
        assert got[1].tobytes() != got[2].tobytes()  # same w, other path

    @pytest.mark.parametrize("dim_w", [1, 2])
    def test_derived_fields_over_history_reading_inputs(self, dim_w):
        scn, hists = self.path_scenario(dim_w)
        assert hists[1].w.tobytes() == hists[2].w.tobytes()
        X, x0 = _sample_points(scn)[1], np.full(1, 0.4)
        frozen = freeze(scn, x0)
        det = CoefficientField.of_tx(lambda t, X: np.cos(X[:, 0]) + t, ())
        for f, f0 in ((scn.a, frozen.a), (scn.sigma, frozen.sigma)):
            self.assert_rows_bit_equal(f0, X, hists, lambda t, X, h, f=f: np.broadcast_to(
                f.evaluate(t, x0[None], h)[0], (len(X),) + f.shape))
            for w0, w1 in ((-1.0, 1.0), (0.3, 0.7)):
                self.assert_rows_bit_equal(
                    _combination(w0, f0, w1, f), X, hists,
                    lambda t, X, h, f=f, f0=f0: w0 * f0.evaluate(t, X, h) + w1 * f.evaluate(t, X, h))
        self.assert_rows_bit_equal(
            _combination(0.5, det, 0.5, scn.F), X, hists,
            lambda t, X, h: 0.5 * det.evaluate(t, X, h) + 0.5 * scn.F.evaluate(t, X, h))

        basis = SpectralBasis(scn.dim_x, 4, scn.domain_halfwidth)
        shifts, weights = _kernel_shifts(basis, MollifierConfig(1))
        symbol = np.cos(basis.freqs @ shifts.T) @ weights
        grid = basis.grid_points

        def mollified(src):  # the smoothing multiplier of src's samples at one history
            def parent(t, X, h):
                vals = src.evaluate(t, grid, h)[None]
                coeffs = symbol * basis.project(vals.reshape(vals.shape[:2] + (-1,)),
                                                stacked=True).swapaxes(-1, -2)
                on_grid = X.shape == grid.shape and np.array_equal(X, grid)
                out = basis.reconstruct(coeffs) if on_grid else basis.evaluate_at(coeffs, X)
                return out.swapaxes(-1, -2).reshape((len(X),) + src.shape)
            return parent
        smooth = mollify(scn, MollifierConfig(1), basis)
        for X in (grid, _sample_points(scn)[1]):  # on and off the grid
            for name in ("a", "sigma"):
                self.assert_rows_bit_equal(getattr(smooth, name), X, hists,
                                           mollified(getattr(scn, name)))

    def test_constant_and_deterministic_fields(self):
        X = np.linspace(-1.0, 1.0, 6)[:, None]
        for f in (CoefficientField.constant(np.eye(1) * 0.5), CoefficientField.zero((1,)),
                  CoefficientField.of_tx(lambda t, X: np.sin(X[:, 0]) * (1 + t), ()),
                  load_scenario(DATA / "tiny.scn")[0].F):
            assert f.is_deterministic
            self.assert_reads_bit_equal(f, 1, X)

    def test_markov_callable_without_a_batched_read_is_read_state_by_state(self):
        seen = []

        def fn(t, X, hist):
            seen.append(hist.w.copy())
            return np.cos(X[:, 0] + hist.w[0]) * (1 + t)
        f = CoefficientField.adapted(fn, (), markov=True)
        assert f.markov
        X = np.linspace(-1.0, 1.0, 6)[:, None]
        self.assert_reads_bit_equal(f, 1, X)
        W = self.states(1)[0]
        seen.clear()
        f.evaluate_states(0.25, X, W)
        assert [w.tobytes() for w in seen] == [w.tobytes() for w in W]

    def test_a_history_reading_field_refuses_bare_wiener_values(self):
        f = CoefficientField.adapted(lambda t, X, hist: 0.0 * X[:, 0] + hist.n_steps, ())
        X = np.zeros((3, 1))
        W, hists = self.states(1)
        got = f.evaluate_states(0.25, X, hists)
        assert got.shape == (len(hists), 3) and np.all(got == 1.0)
        with pytest.raises(StructuralError, match="needs histories"):
            f.evaluate_states(0.25, X, W)

    def test_a_batched_read_of_the_wrong_shape_is_refused(self):
        f = CoefficientField((), fn=lambda t, X, W: np.zeros((len(W), len(X) + 1)),
                             reads=frozenset({"w"}))
        with pytest.raises(StructuralError, match=r"read returned shape \(2, 4\), expected"):
            f.evaluate_states(0.0, np.zeros((3, 1)), np.zeros((2, 1)))
        # a deterministic read gives its one state's row, not one per state
        g = CoefficientField((), fn=lambda t, X, W: np.zeros((2, len(X))), reads=frozenset())
        with pytest.raises(StructuralError, match=r"expected \(1, 3\)"):
            g.evaluate_states(0.0, np.zeros((3, 1)), np.zeros((2, 1)))


class TestTimeFreeDeclaration:
    """Parsed entries that never name t, and constants, are t-free; a derived
    field is t-free when all its inputs are."""

    NAMES = ("a", "b", "c", "sigma", "nu", "F", "phi")

    def test_parser_sets_t_free_exactly_when_no_entry_names_t(self):
        scn = load_scenario(DATA / "tiny.scn")[0]
        assert {n: getattr(scn, n).t_free for n in self.NAMES} == {
            "a": True, "b": True, "c": True, "sigma": True, "nu": True,
            "F": False, "phi": True}  # F = 0.5*cos(x1)*(1-t)
        text = TestMarkovDeclaration.TEXT.replace(
            "a = 0.6 + 0.1*sin(x1 + w1)", "a = [[0.6 + 0.01*t*sin(x1 + w1)]]").replace(
            "F = cos(x1)", "F = cos(x1) + 0*t")
        scn = load_scenario_text(text)[0]
        assert scn.a.markov and not scn.a.t_free
        assert scn.F.is_deterministic and not scn.F.t_free
        assert scn.sigma.t_free and scn.phi.t_free and scn.b.t_free  # b: absent, zero

    def test_constants_are_t_free_and_library_callables_are_not(self):
        assert CoefficientField.constant(0.5).t_free
        assert CoefficientField.zero((2, 2)).t_free
        assert not CoefficientField.of_tx(lambda t, X: np.cos(X[:, 0]), ()).t_free
        assert not TestMarkovDeclaration.fields()[1].t_free

    def test_derived_fields_and_the_flag(self):
        scn = load_scenario_text(TestMarkovDeclaration.TEXT)[0]
        timed = load_scenario(DATA / "tiny.scn")[0].F
        library = CoefficientField.of_tx(lambda t, X: np.cos(X[:, 0]), ())
        free = (scn.phi, scn.F, CoefficientField.constant(0.5))
        for f in free:
            for g in free:
                assert CoefficientField.derived(lambda t, X, h: 0.0, (), f, g).t_free
                assert _combination(-1.0, g, 1.0, f).t_free
            for g in (timed, library):
                assert not CoefficientField.derived(lambda t, X, h: 0.0, (), f, g).t_free
                assert not _combination(-1.0, g, 1.0, f).t_free
                assert not _combination(0.5, f, 0.5, g).t_free
            assert _frozen_field(f, np.zeros(1)).t_free
        assert not _frozen_field(library, np.zeros(1)).t_free
        assert all(getattr(freeze(scn, np.zeros(1)), n).t_free for n in self.NAMES)
        basis = SpectralBasis(1, 4, np.pi)
        assert mollify(scn, MollifierConfig(1), basis).a.t_free
        rough_a = CoefficientField.of_tx(
            lambda t, X: (0.6 + 0.1 * np.abs(np.sin(X[:, 0])))[:, None, None], (1, 1))
        assert not mollify(scn.with_fields(a=rough_a), MollifierConfig(1), basis).a.t_free

    @pytest.mark.parametrize("bound", [0, 3 * 81 * 8])
    def test_rows_past_the_byte_bound_give_the_same_bits(self, monkeypatch, bound):
        # 0: nothing is kept; three 9x9 rows: the bound fills mid-solve
        scn = load_scenario_text(TestMarkovDeclaration.TEXT)[0]
        basis = SpectralBasis(1, 4, np.pi)
        tree = build_tree(1, 4, 3, scn.horizon)
        want = solve_tree(declared_time_dependent(scn), tree, basis)
        monkeypatch.setattr("bspde.solver._CACHE_BYTES", bound)
        fields = LevelFields(scn, tree, basis)
        got = backward_solve(tree, basis, SchemeConfig(), fields.terminal(),
                             fields.operators, fields.source)
        rows = fields._rows
        assert rows.nbytes <= bound < rows.nbytes + 81 * 8  # no room for an operator
        assert bool(rows) == (bound > 0)
        for a, b in zip(got.p.levels + got.q.levels, want.p.levels + want.q.levels):
            assert a.tobytes() == b.tobytes()


class TestScenarioConstruction:
    def test_defaults_roundtrip(self):
        sc = make_scenario()
        assert sc.dim_x == 1 and sc.dim_w == 1
        assert sc.form == "non_divergence"
        a = sc.a.evaluate(0.0, np.zeros((1, 1)))
        assert np.allclose(a, 0.5)

    def test_with_fields_replaces(self):
        sc = make_scenario()
        sc2 = sc.with_fields(c=make_field(1.0, ()))
        assert sc2.c.evaluate(0.0, np.zeros((1, 1)))[0] == 1.0
        # original untouched
        assert sc.c.evaluate(0.0, np.zeros((1, 1)))[0] == 0.0

    def test_kappa_K_ordering_enforced(self):
        with pytest.raises((StructuralError, ValueError)):
            make_scenario(kappa=1.5, K=2.0)
        with pytest.raises((StructuralError, ValueError)):
            make_scenario(kappa=0.25, K=0.9)


class TestValidate:
    def test_heat_margin_exact(self):
        # 2a - sigma sigma^T - kappa I = 1 - 0 - 0.25 = 0.75
        report = validate(make_scenario(), default_modulus(2.0))
        assert report.all_ok
        assert report.superparabolic_ok and report.bounds_ok and report.symmetry_ok
        assert report.min_margin == pytest.approx(0.75, abs=1e-12)

    def test_unit_noise_breaks_superparabolicity(self):
        # 2a - sigma sigma^T - kappa I = 1 - 1 - 0.25 = -0.25
        report = validate(make_scenario(sigma=1.0), default_modulus(2.0))
        assert not report.superparabolic_ok
        assert report.min_margin == pytest.approx(-0.25, abs=1e-12)
        assert not report.all_ok

    def test_bound_violation(self):
        # eig(2a) = 1.2 > K = 1.1
        report = validate(
            make_scenario(a=0.6, K=1.1, kappa=0.25),
            default_modulus(2.0),
        )
        assert not report.bounds_ok

    def test_asymmetric_a_flagged(self):
        sc = make_scenario(d=2, a=np.array([[0.5, 0.2], [0.0, 0.5]]))
        report = validate(sc, default_modulus(2.0))
        assert not report.symmetry_ok

    def test_zero_modulus_fails_for_varying_coefficient(self):
        sc = make_scenario(a=lambda t, X: 0.5 + 0.1 * np.sin(X[:, 0]))
        strict = validate(sc, ModulusOfContinuity(lambda r: 0.0 * r))
        assert not strict.modulus_ok
        loose = validate(sc, ModulusOfContinuity(lambda r: np.where(r > 0, 4.0, 0.0)))
        assert loose.modulus_ok

    def test_validation_is_pure(self):
        sc = make_scenario(a=lambda t, X: 0.5 + 0.1 * np.sin(X[:, 0]), sigma=0.3)
        mod = ModulusOfContinuity(lambda r: np.where(r > 0, 4.0, 0.0))
        r1 = validate(sc, mod)
        r2 = validate(sc, mod)
        assert r1 == r2

    def test_sample_count_reported(self):
        report = validate(make_scenario(), default_modulus(2.0))
        assert report.sample_count > 0

    @given(st.floats(min_value=0.0, max_value=1.2))
    def test_margin_monotone_in_noise(self, s):
        # adding diffusion-of-the-solution noise only shrinks the margin
        base = validate(make_scenario(), default_modulus(2.0))
        noisy = validate(make_scenario(sigma=s), default_modulus(2.0))
        assert noisy.min_margin <= base.min_margin + 1e-12
        assert noisy.min_margin == pytest.approx(0.75 - s * s, abs=1e-10)


class TestSampleGrid:
    def test_fixed_probe_points(self):
        # 5 times, a 7-per-axis lattice and 8 seeded points, the same every call
        sc = make_scenario(d=2)
        ts, xs = _sample_points(sc)
        assert np.array_equal(ts, np.linspace(0.0, sc.horizon, 5))
        assert xs.shape == (7 * 7 + 8, 2)
        assert np.all(np.abs(xs) <= sc.domain_halfwidth + 1e-12)
        assert all(np.array_equal(a, b) for a, b in zip((ts, xs), _sample_points(sc)))
