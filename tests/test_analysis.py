"""Energy audits, the discrete Ito identity, positivity, mollification,
and derived higher-regularity systems."""

from pathlib import Path

import numpy as np
import pytest

import bspde.solver
from bspde import (
    ESTIMATE_TAGS,
    CoefficientField,
    DegenerateKernelError,
    LevelOperators,
    MollifierConfig,
    PathHistory,
    SchemeConfig,
    SpectralBasis,
    StructuralError,
    backward_solve,
    build_chain,
    build_tree,
    default_modulus,
    energy_audit,
    load_scenario,
    load_scenario_text,
    mollify,
    positivity_check,
    solve_tree,
    validate,
)
from helpers import (counting, higher_regularity_reference, make_scenario,
                     markov_scenario, mollify_reference, wiener_values)
from oracles import MultiIndex, higher_regularity_solve, ito_identity_check

BASIS = SpectralBasis(1, 6, np.pi)
TREE = build_tree(1, 4, 2, 0.5)


def cos_scenario(**kw):
    kw.setdefault("phi", lambda t, X: np.cos(X[:, 0]))
    kw.setdefault("T", 0.5)
    return make_scenario(**kw)


class TestEnergyAudit:
    def test_zero_data_passes_with_zero_constant(self):
        sc = make_scenario(phi=0.0, F=0.0, T=0.5)
        rep = energy_audit(solve_tree(sc, TREE, BASIS), sc, TREE, BASIS)
        assert rep.lhs == 0.0 and rep.rhs_data == 0.0
        assert rep.fitted_C == 0.0
        assert rep.passed

    def test_tag_registry(self):
        assert ESTIMATE_TAGS == ("weak_est_2_5", "strong_est_2_7",
                                 "higher_est_2_9", "negpart_5_2")
        sc = cos_scenario()
        sol = solve_tree(sc, TREE, BASIS)
        with pytest.raises(StructuralError, match="bogus"):
            energy_audit(sol, sc, TREE, BASIS, theorem_tag="bogus")

    def test_heat_weak_estimate_values(self):
        sc = cos_scenario()
        rep = energy_audit(solve_tree(sc, TREE, BASIS), sc, TREE, BASIS)
        # data side is the L2 norm squared of the terminal cosine
        assert rep.rhs_data == pytest.approx(0.5, abs=1e-12)
        assert rep.fitted_C == pytest.approx(rep.lhs / rep.rhs_data, rel=1e-12)
        assert rep.passed
        assert rep.e_sup_sq >= rep.sup_e_sq - 1e-14

    def test_order_ladder_scales_data_norms(self):
        # cosine: each extra Sobolev order doubles the squared data norm
        sc = cos_scenario()
        sol = solve_tree(sc, TREE, BASIS)
        weak = energy_audit(sol, sc, TREE, BASIS, theorem_tag="weak_est_2_5")
        strong = energy_audit(sol, sc, TREE, BASIS, theorem_tag="strong_est_2_7")
        higher = energy_audit(sol, sc, TREE, BASIS, theorem_tag="higher_est_2_9", order=1)
        assert strong.rhs_data == pytest.approx(2 * weak.rhs_data, rel=1e-12)
        assert higher.rhs_data == pytest.approx(4 * weak.rhs_data, rel=1e-12)
        # constant-coefficient heat keeps a single mode, so the fitted
        # constants of all three estimates coincide
        assert strong.fitted_C == pytest.approx(weak.fitted_C, rel=1e-12)
        assert higher.fitted_C == pytest.approx(weak.fitted_C, rel=1e-12)

    def test_sign_flip_invariance(self):
        sc_plus = cos_scenario(c=-2.0, K=4.0)
        sc_minus = make_scenario(phi=lambda t, X: -np.cos(X[:, 0]), c=-2.0, K=4.0, T=0.5)
        r_plus = energy_audit(solve_tree(sc_plus, TREE, BASIS), sc_plus, TREE, BASIS)
        r_minus = energy_audit(solve_tree(sc_minus, TREE, BASIS), sc_minus, TREE, BASIS)
        assert r_plus.lhs == r_minus.lhs
        assert r_plus.fitted_C == r_minus.fitted_C

    def test_fitted_constant_refinement_stable(self):
        sc = cos_scenario()
        cs = []
        for n in (8, 16, 32):
            chain = build_chain(1, n, sc.horizon)
            rep = energy_audit(solve_tree(sc, chain, BASIS), sc, chain, BASIS)
            cs.append(rep.fitted_C)
        assert abs(cs[1] - cs[2]) / cs[2] < 0.1
        assert abs(cs[0] - cs[2]) / cs[2] < 0.2

    def test_adapted_data_feeds_martingale_part(self):
        # terminal cos(x)(1 + 0.2 W_T): the expected squared data norm is
        # 0.5 (1 + 0.04 T) because the tree matches the Wiener variance
        sc = make_scenario(
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]), T=0.5,
        )
        sol = solve_tree(sc, TREE, BASIS)
        rep = energy_audit(sol, sc, TREE, BASIS)
        assert rep.rhs_data == pytest.approx(0.5 * 1.02, rel=1e-12)
        assert sol.q.time_norm_sq(0) > 1e-6
        assert rep.passed and np.isfinite(rep.fitted_C)


class TestItoIdentity:
    def test_zero_generator_is_exact(self):
        # all-zero coefficients give zero operators: the exactly-solvable case
        tree = build_tree(1, 4, 2, 0.5)
        ghat = BASIS.project(np.sin(BASIS.grid_points[:, 0]))
        n = BASIS.n_modes
        zops = lambda level: LevelOperators(np.zeros((1, n, n)), np.zeros((1, 1, n, n)))
        sol = backward_solve(
            tree, BASIS, SchemeConfig(theta=1.0),
            wiener_values(tree, tree.n_steps)[:, :1] * ghat,
            zops,
            lambda level: np.zeros((1, n)),
        )
        defects = ito_identity_check(sol, make_scenario(a=0.0), tree, BASIS)
        assert np.max(np.abs(defects)) < 1e-12

    def test_martingale_energy_grows_linearly(self):
        tree = build_tree(1, 4, 2, 0.5)
        ghat = BASIS.project(np.sin(BASIS.grid_points[:, 0]))
        n = BASIS.n_modes
        zops = lambda level: LevelOperators(np.zeros((1, n, n)), np.zeros((1, 1, n, n)))
        sol = backward_solve(
            tree, BASIS, SchemeConfig(theta=1.0),
            wiener_values(tree, tree.n_steps)[:, :1] * ghat,
            zops,
            lambda level: np.zeros((1, n)),
        )
        g_sq = BASIS.norm_sq(ghat, order=0)
        for level in range(tree.n_steps + 1):
            t = tree.time_of(level)
            assert sol.p.level_expected_norm_sq(level, 0) == pytest.approx(
                g_sq * t, abs=1e-12)

    def test_defect_first_order_in_dt(self):
        sc = cos_scenario()
        defects = []
        for n in (16, 32, 64):
            chain = build_chain(1, n, sc.horizon)
            sol = solve_tree(sc, chain, BASIS, SchemeConfig(theta=0.5))
            d = ito_identity_check(sol, sc, chain, BASIS)
            defects.append(np.max(np.abs(d)))
        assert defects[0] / defects[1] > 1.8
        assert defects[1] / defects[2] > 1.8

    def test_reports_per_level(self):
        sc = cos_scenario()
        sol = solve_tree(sc, TREE, BASIS)
        d = ito_identity_check(sol, sc, TREE, BASIS)
        assert d.shape == (TREE.n_steps + 1,)


class TestPositivity:
    def test_nonnegative_data_nonnegative_solution(self):
        sc = make_scenario(phi=lambda t, X: 1.5 + np.cos(X[:, 0]), T=0.5)
        rep = positivity_check(solve_tree(sc, TREE, BASIS), sc, TREE, BASIS)
        assert rep.min_value > -1e-8
        assert rep.negpart_l2_per_level.max() < 1e-12
        assert rep.envelope.passed
        assert rep.envelope.theorem_tag == "negpart_5_2"

    def test_constant_negative_terminal(self):
        # heat flow preserves constants: p = -1 at every level, and the
        # squared negative part integrates to the torus volume
        sc = make_scenario(phi=-1.0, T=0.5)
        rep = positivity_check(solve_tree(sc, TREE, BASIS), sc, TREE, BASIS)
        assert rep.min_value == pytest.approx(-1.0, abs=1e-10)
        assert np.allclose(rep.negpart_l2_per_level, 2 * np.pi, atol=1e-8)
        assert rep.fitted_C == 0.0
        assert rep.envelope.passed

    def test_growth_scenario_fits_positive_rate(self):
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]) - 0.2, c=-2.0, K=4.0, T=0.5)
        rep = positivity_check(solve_tree(sc, TREE, BASIS), sc, TREE, BASIS)
        assert rep.envelope.passed
        assert rep.fitted_C > 1.0

    def test_manufactured_violation_flagged(self):
        # audit a genuinely negative solution against nonnegative data: the
        # domination inequality cannot hold at any rate
        sc_neg = make_scenario(phi=-1.0, T=0.5)
        sc_pos = make_scenario(phi=1.0, T=0.5)
        sol = solve_tree(sc_neg, TREE, BASIS)
        rep = positivity_check(sol, sc_pos, TREE, BASIS)
        assert not rep.envelope.passed

    def test_zero_data_requires_zero_solution(self):
        sc = make_scenario(phi=0.0, F=0.0, T=0.5)
        rep = positivity_check(solve_tree(sc, TREE, BASIS), sc, TREE, BASIS)
        assert rep.envelope.passed
        assert rep.negpart_l2_per_level.max() <= 1e-12


class TestMollify:
    def varying(self):
        return make_scenario(a=lambda t, X: 0.5 + 0.2 * np.sin(X[:, 0]), K=2.0,
                             kappa=0.2, phi=lambda t, X: np.cos(X[:, 0]), T=0.5)

    def test_constants_are_fixed_points(self):
        big = SpectralBasis(1, 64, np.pi)
        sc = make_scenario()
        out = mollify(sc, MollifierConfig(8), big)
        x = big.grid_points
        assert np.abs(out.a.evaluate(0.0, x)[:, 0, 0] - 0.5).max() < 1e-12
        assert np.abs(out.sigma.evaluate(0.0, x)).max() < 1e-12

    def test_defect_bounded_by_modulus_and_monotone(self):
        # |a(x) - a(y)| <= 0.2 |x - y|, so smoothing at scale 1/n moves a by
        # at most 0.2/n; the observed defect also shrinks monotonically
        big = SpectralBasis(1, 64, np.pi)
        sc = self.varying()
        x = big.grid_points
        a_exact = 0.5 + 0.2 * np.sin(x[:, 0])
        defects = []
        for n in (4, 8, 16):
            out = mollify(sc, MollifierConfig(n), big)
            a_n = out.a.evaluate(0.0, x)[:, 0, 0]
            defect = np.abs(a_n - a_exact).max()
            assert defect <= 0.2 / n
            defects.append(defect)
        assert defects[0] > defects[1] > defects[2]

    def test_smoothed_scenario_passes_relaxed_audit(self):
        big = SpectralBasis(1, 64, np.pi)
        out = mollify(self.varying(), MollifierConfig(8), big)
        relaxed = out.with_fields(bound_K=4.0, ellipticity_kappa=0.1)
        rep = validate(relaxed, default_modulus(4.0))
        assert rep.all_ok

    def test_degenerate_kernel_rejected(self):
        small = SpectralBasis(1, 4, np.pi)
        with pytest.raises(DegenerateKernelError, match="grid spacing"):
            mollify(self.varying(), MollifierConfig(16), small)

    def test_other_fields_untouched(self):
        big = SpectralBasis(1, 64, np.pi)
        sc = self.varying()
        out = mollify(sc, MollifierConfig(8), big)
        x = big.grid_points
        assert np.allclose(out.phi.evaluate(0.0, x), sc.phi.evaluate(0.0, x), atol=1e-14)
        assert out.bound_K == sc.bound_K


DIV_2D_TEXT = """
[problem]
d = 2
d1 = 1
T = 0.5
L = 3.14159265358979
K = 3.0
kappa = 0.2
form = divergence
[coefficients]
a = [[0.7 + 0.1*abs(sin(x1)), 0.1*cos(x1 + x2)], [0.1*cos(x1 + x2), 0.6 + 0.1*sin(x2 - 0.3)]]
sigma = [[0.2 + 0.05*cos(x2)], [0.1*abs(sin(x1 - x2))]]
[data]
phi = cos(x1)*sin(x2)
"""


def _mollify_cases():
    rough = load_scenario(str(Path(__file__).parent / "data" / "rough.scn"))[0]
    div_2d = load_scenario_text(DIV_2D_TEXT)[0]
    markov = markov_scenario(1)
    histories = [PathHistory.from_increments([[0.3], [-0.1]], 0.125),
                 PathHistory.from_increments([[-0.35], [0.0], [0.35]], 0.125)]
    return {
        "rough_1d": (rough, SpectralBasis(1, 24, rough.domain_halfwidth), (2, 4, 8), [None]),
        "divergence_2d": (div_2d, SpectralBasis(2, 10, np.pi), (1, 2), [None]),
        "adapted_markov": (markov, SpectralBasis(1, 16, np.pi), (1, 2), histories),
    }


@pytest.mark.parametrize("case", ["rough_1d", "divergence_2d", "adapted_markov"])
def test_multiplier_matches_the_shift_sum_reference(case):
    scn, basis, ns, histories = _mollify_cases()[case]
    L = basis.domain_halfwidth
    off_grid = np.random.default_rng(3).uniform(-L, L, size=(7, basis.dim_x))
    for n in ns:
        out = mollify(scn, MollifierConfig(n), basis)
        for name in ("a", "sigma"):
            src, smooth = getattr(scn, name), getattr(out, name)
            for hist in histories:
                t = 0.0 if hist is None else hist.t
                for X in (basis.grid_points, off_grid):
                    got = smooth.evaluate(t, X, hist)
                    want = mollify_reference(src, basis, MollifierConfig(n), t, X, hist)
                    assert got.shape == want.shape == (len(X),) + src.shape
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestHigherRegularity:
    def test_constant_coefficients_commute_with_derivative(self):
        sc = cos_scenario()
        chain = build_chain(1, 16, sc.horizon)
        basis = SpectralBasis(1, 8, np.pi)
        _, defect = higher_regularity_solve(sc, chain, basis, MultiIndex((1,)))
        assert defect < 1e-10

    def test_order_cap_and_form_guard(self):
        sc = cos_scenario()
        chain = build_chain(1, 8, sc.horizon)
        basis = SpectralBasis(1, 6, np.pi)
        with pytest.raises(StructuralError, match="order"):
            higher_regularity_solve(sc, chain, basis, MultiIndex((3,)))
        # the Leibniz source is assembled in the scenario's own form
        div = cos_scenario(form="divergence")
        _, defect = higher_regularity_solve(div, chain, basis, MultiIndex((1,)))
        assert defect < 1e-10

    def test_multi_index_length_is_checked_before_any_field_read(self):
        sc = markov_scenario(1)
        names = ("a", "b", "c", "sigma", "nu", "F", "phi")
        wrapped = {name: counting(getattr(sc, name)) for name in names}
        sc = sc.with_fields(**{n: f for n, (f, _) in wrapped.items()})
        tree = build_tree(1, 3, 3, sc.horizon)
        with pytest.raises(StructuralError, match="multi-index length"):
            higher_regularity_solve(sc, tree, BASIS, MultiIndex((1, 0)))
        assert all(not calls for _, calls in wrapped.values())

    @pytest.mark.parametrize("form", ["non_divergence", "divergence"])
    def test_variable_coefficient_defect_shrinks_under_refinement(self, form):
        av = lambda t, X: np.exp(0.3 * np.sin(X[:, 0]))
        defects = []
        for modes, steps in ((8, 16), (16, 32)):
            basis = SpectralBasis(1, modes, np.pi)
            chain = build_chain(1, steps, 0.5)
            sc = make_scenario(a=av, K=4.0, kappa=0.2,
                               phi=lambda t, X: np.cos(X[:, 0]), T=0.5, form=form)
            _, defect = higher_regularity_solve(sc, chain, basis, MultiIndex((1,)))
            defects.append(defect)
        assert defects[1] < defects[0]
        assert defects[0] < 1e-8

    def test_second_order_derived_system(self):
        sc = cos_scenario()
        chain = build_chain(1, 16, sc.horizon)
        basis = SpectralBasis(1, 8, np.pi)
        derived, defect = higher_regularity_solve(sc, chain, basis, MultiIndex((2,)))
        assert defect < 1e-10
        # second derivative of the cosine solution flips its sign
        base = solve_tree(sc, chain, basis)
        assert np.allclose(derived.p0().coeffs, -base.p0().coeffs, atol=1e-10)

    def test_two_dimensional_partial(self):
        sc = make_scenario(
            d=2, T=0.25, a=0.5, K=2.0, kappa=0.25,
            phi=lambda t, X: np.cos(X[:, 0]) * np.cos(X[:, 1]),
        )
        chain = build_chain(1, 8, sc.horizon)
        basis = SpectralBasis(2, 3, np.pi)
        _, defect = higher_regularity_solve(sc, chain, basis, MultiIndex((1, 0)))
        assert defect < 1e-10

    @pytest.mark.parametrize("dim_w, steps, branching, alpha",
                             [(1, 5, 3, (2,)), (1, 4, 3, (1,)), (2, 3, 3, (2,))])
    def test_adapted_tree_matches_per_node_source(self, dim_w, steps, branching, alpha):
        sc = markov_scenario(dim_w)
        tree = build_tree(dim_w, steps, branching, sc.horizon)
        base = solve_tree(sc, tree, BASIS)
        derived, _ = higher_regularity_solve(sc, tree, BASIS, MultiIndex(alpha), base=base)
        ref = higher_regularity_reference(sc, tree, BASIS, MultiIndex(alpha), base)
        for got, want in zip(derived.p.levels + derived.q.levels, ref.p.levels + ref.q.levels):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_adapted_tree_evaluates_each_field_once_per_state(self):
        sc = markov_scenario(1)
        names = ("a", "b", "c", "sigma", "nu", "F", "phi")
        wrapped = {name: counting(getattr(sc, name)) for name in names}
        tree = build_tree(1, 6, 3, sc.horizon)
        base = solve_tree(sc, tree, BASIS)
        higher_regularity_solve(sc.with_fields(**{n: f for n, (f, _) in wrapped.items()}),
                                tree, BASIS, MultiIndex((2,)), base=base)
        states = [len({tree.history(level, i).w.tobytes()
                       for i in range(tree.levels[level].n_nodes)})
                  for level in range(tree.n_steps + 1)]
        # one call per state for each of the three Leibniz operators of the
        # source (D^beta of every coefficient; at beta = 0 only b, c and nu),
        # one more for a and sigma in the top-order operators, one for F
        per_state = {"a": 3, "sigma": 3, "b": 3, "c": 3, "nu": 3, "F": 1}
        for name, (_, calls) in wrapped.items():
            for level in range(tree.n_steps):
                want = 0 if name == "phi" else per_state[name] * states[level]
                assert calls.count(tree.time_of(level)) == want, (name, level)
        assert len(wrapped["phi"][1]) == states[-1]
        assert sum(len(calls) for _, calls in wrapped.values()) < tree.n_nodes

    def test_constant_coefficients_skip_the_zero_leibniz_terms(self, monkeypatch):
        # every D^beta (beta != 0) of a constant coefficient is zero, so those
        # operators are neither assembled nor applied, and no bit of the pair
        # moves against a zero-valued function nu that forces them in
        text = (Path(__file__).parent / "data" / "tiny.scn").read_text(encoding="utf-8")
        sc = load_scenario_text(text.replace("a = 0.6 + 0.1*sin(x1)", "a = 0.6"))[0]
        sc = sc.with_fields(nu=CoefficientField.zero((1,)))
        forced = sc.with_fields(nu=CoefficientField.of_tx(
            lambda t, X: np.zeros((len(X), 1)), (1,), t_free=True))
        tree, basis = build_tree(1, 6, 3, sc.horizon), SpectralBasis(1, 8, np.pi)
        base = solve_tree(sc, tree, basis)
        calls = []

        def counted(*args, _assemble=bspde.solver.assemble_L):
            calls.append(args[0])
            return _assemble(*args)
        monkeypatch.setattr(bspde.solver, "assemble_L", counted)
        derived, defect = higher_regularity_solve(sc, tree, basis, MultiIndex((2,)), base=base)
        # the top-order operator and the beta = 0 term; not beta = (1,), (2,)
        assert len(calls) == 2
        calls.clear()
        want, want_defect = higher_regularity_solve(forced, tree, basis, MultiIndex((2,)),
                                                    base=base)
        assert len(calls) == 4
        assert defect == want_defect
        for got, ref in zip(derived.p.levels + derived.q.levels, want.p.levels + want.q.levels):
            assert got.tobytes() == ref.tobytes()

    def test_multi_index_bookkeeping(self):
        assert MultiIndex((2,)).order == 2
        assert MultiIndex((1, 1)).order == 2
        subs = dict(MultiIndex((2,)).sub_indices())
        assert subs == {(0,): 1, (1,): 2, (2,): 1}
