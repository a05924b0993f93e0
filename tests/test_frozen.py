"""Coefficient freezing, Picard iteration, and continuation in lambda."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bspde import (
    ConvergenceError,
    LevelFields,
    LevelOperators,
    PathHistory,
    SchemeConfig,
    SpectralBasis,
    build_chain,
    build_tree,
    continuation_solve,
    freeze,
    freeze_and_iterate,
    load_scenario,
    load_scenario_text,
    mixed_norm_sq,
    pair_difference,
    solve_tree,
)
from helpers import (DIVERGENCE_MARKOV_TEXT, assemble_L_at, assemble_M_at, make_scenario,
                     markov_scenario, picard_reference)
from oracles import exponential_matrix, scalar_mode_exact, scalar_theta_chain, to_exponential
from test_solver import assemblies, declared_path_dependent  # noqa: F401 (a fixture)

BASIS = SpectralBasis(1, 8, np.pi)


def pair_gap(x, y):
    return np.sqrt(mixed_norm_sq(pair_difference(x, y), p_order=0, q_order=0))


def cos_scenario(**kw):
    kw.setdefault("phi", lambda t, X: np.cos(X[:, 0]))
    kw.setdefault("T", 0.5)
    return make_scenario(**kw)


def varying_a(delta):
    return lambda t, X, d=delta: 0.5 * (1.0 + d * np.sin(X[:, 0]))


class TestSolveFrozen:
    def test_matches_scalar_recursion_per_mode(self):
        sc = cos_scenario()
        chain = build_chain(1, 16, sc.horizon)
        frozen = freeze(sc, np.zeros(1))
        sol = solve_tree(frozen, chain, BASIS)
        ref = scalar_theta_chain(-0.5, 0.5, lambda s: 0.0, sc.horizon, 16, 1.0)
        got = to_exponential(BASIS, sol.p0().coeffs)[BASIS.modes[:, 0] == 1][0]
        assert got == pytest.approx(ref, abs=1e-14)

    def test_converges_to_mode_ode(self):
        sc = cos_scenario()
        exact = scalar_mode_exact(-0.5, 0.5, lambda s: 0.0, sc.horizon)
        errs = []
        for n in (16, 32, 64):
            chain = build_chain(1, n, sc.horizon)
            frozen = freeze(sc, np.zeros(1))
            sol = solve_tree(frozen, chain, BASIS)
            got = to_exponential(BASIS, sol.p0().coeffs)[BASIS.modes[:, 0] == 1][0]
            errs.append(abs(got - exact))
        assert errs[0] / errs[1] > 1.8
        assert errs[1] / errs[2] > 1.8

    def test_equals_tree_solve_for_constant_coefficients(self):
        sc = cos_scenario()
        chain = build_chain(1, 12, sc.horizon)
        frozen = freeze(sc, np.zeros(1))
        assert pair_gap(solve_tree(frozen, chain, BASIS), solve_tree(sc, chain, BASIS)) < 1e-13

    def test_freeze_point_selects_coefficient_value(self):
        # a(x) = 0.5(1 + 0.5 sin x) frozen at x0 = pi/2 is the constant 0.75
        sc_var = cos_scenario(a=varying_a(0.5), K=2.0, kappa=0.1)
        sc_const = cos_scenario(a=0.75, K=2.0, kappa=0.1)
        chain = build_chain(1, 12, sc_var.horizon)
        frozen = freeze(sc_var, np.array([np.pi / 2]))
        assert pair_gap(solve_tree(frozen, chain, BASIS),
                        solve_tree(sc_const, chain, BASIS)) < 1e-12


def frozen_cases():
    """Adapted Markov a and sigma (d = 1, d1 = 1 and 2) and a 2-d scenario,
    each in both forms."""
    cases = [(markov_scenario(1), BASIS), (markov_scenario(2), BASIS),
             (load_scenario_text(DIVERGENCE_MARKOV_TEXT)[0], SpectralBasis(2, 6, np.pi))]
    for scn, basis in cases:
        for form in ("non_divergence", "divergence"):
            yield pytest.param(scn.with_fields(form=form), basis,
                               id=f"d{scn.dim_x}-d1{scn.dim_w}-{form}")


class TestFrozenOperators:
    """The frozen scenario is an ordinary scenario on the tree engine."""

    @pytest.mark.parametrize("scn, basis", frozen_cases())
    def test_frozen_operators_are_diagonal(self, scn, basis):
        # a and sigma frozen in x make every operator a Fourier multiplier:
        # diagonal on the exponentials
        frozen = freeze(scn, np.full(scn.dim_x, 0.7))
        rng = np.random.default_rng(1)
        E = exponential_matrix(basis)
        for steps in (0, 1, 3):
            hist = PathHistory.from_increments(
                0.3 * rng.standard_normal((steps, scn.dim_w)), 0.1) \
                if steps else PathHistory.empty(scn.dim_w)
            for op in [assemble_L_at(frozen, hist.t, hist, basis),
                       *assemble_M_at(frozen, hist.t, hist, basis)]:
                op = E @ op @ E.conj().T
                off = op - np.diag(np.diag(op))
                assert np.abs(off).max() <= 1e-14 * np.abs(op).max()

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_initial_solve_is_the_tree_solve_of_the_frozen_scenario(self, theta):
        scn, x0 = markov_scenario(1), np.array([0.4])
        tree, scheme = build_tree(1, 3, 3, scn.horizon), SchemeConfig(theta=theta)
        sol, report = freeze_and_iterate(scn, x0, tree, BASIS, max_iter=0, scheme=scheme)
        ref = solve_tree(freeze(scn, x0), tree, BASIS, scheme)
        assert report.iterations == 0 and not report.converged
        for a, b in zip(sol.p.levels + sol.q.levels, ref.p.levels + ref.q.levels):
            assert a.tobytes() == b.tobytes()


class TestFreezeAndIterate:
    def test_constant_coefficients_converge_immediately(self):
        sc = cos_scenario()
        chain = build_chain(1, 12, sc.horizon)
        sol, report = freeze_and_iterate(sc, np.zeros(1), chain, BASIS)
        assert report.converged
        assert report.iterations == 1
        assert report.final_defect == 0.0
        assert pair_gap(sol, solve_tree(sc, chain, BASIS)) < 1e-13

    def test_contraction_ratio_scales_with_oscillation(self):
        chain = build_chain(1, 16, 0.5)
        first_ratios = []
        for delta in (0.02, 0.04, 0.08):
            sc = cos_scenario(a=varying_a(delta), K=2.0, kappa=0.2)
            sol, report = freeze_and_iterate(sc, np.zeros(1), chain, BASIS)
            assert report.converged
            first_ratios.append(report.contraction_ratios[0])
        assert first_ratios[0] < first_ratios[1] < first_ratios[2]
        assert first_ratios[1] / first_ratios[0] == pytest.approx(2.0, rel=0.05)
        assert first_ratios[2] / first_ratios[1] == pytest.approx(2.0, rel=0.05)

    def test_iterate_limit_matches_tree_solve(self):
        sc = cos_scenario(a=varying_a(0.2), K=2.0, kappa=0.2)
        chain = build_chain(1, 16, sc.horizon)
        sol, report = freeze_and_iterate(sc, np.zeros(1), chain, BASIS, tol=1e-11)
        assert report.converged
        assert pair_gap(sol, solve_tree(sc, chain, BASIS)) < 1e-9

    def test_bad_freeze_point_stalls(self):
        # freezing where a is smallest doubles the relative oscillation, so
        # the Picard map stops contracting
        sc = cos_scenario(a=varying_a(0.5), K=2.0, kappa=0.1)
        chain = build_chain(1, 16, sc.horizon)
        sol, report = freeze_and_iterate(sc, np.array([-np.pi / 2]), chain, BASIS,
                                         max_iter=12)
        assert not report.converged
        assert report.contraction_ratios[-1] > 0.8
        assert report.final_defect > 1e-6

    def test_non_convergence_is_reported_not_raised(self):
        sc = cos_scenario(a=varying_a(0.5), K=2.0, kappa=0.1)
        chain = build_chain(1, 8, sc.horizon)
        sol, report = freeze_and_iterate(sc, np.array([-np.pi / 2]), chain, BASIS,
                                         max_iter=3)
        assert report.iterations == 3
        assert not report.converged


class TestContinuation:
    def test_single_step_equals_direct_iteration(self):
        sc = cos_scenario(a=varying_a(0.2), K=2.0, kappa=0.2)
        chain = build_chain(1, 16, sc.horizon)
        via_continuation, _ = continuation_solve(sc, 1, chain, BASIS)
        direct, _ = freeze_and_iterate(sc, np.zeros(1), chain, BASIS)
        assert pair_gap(via_continuation, direct) == 0.0

    def test_rescues_large_oscillation(self):
        sc = cos_scenario(a=varying_a(0.5), K=2.0, kappa=0.1)
        chain = build_chain(1, 16, sc.horizon)
        sol, reports = continuation_solve(sc, 4, chain, BASIS)
        assert all(r.converged for r in reports)
        assert pair_gap(sol, solve_tree(sc, chain, BASIS)) < 1e-6

    def test_failure_names_homotopy_parameter(self):
        sc = cos_scenario(a=varying_a(0.5), K=2.0, kappa=0.1)
        chain = build_chain(1, 16, sc.horizon)
        with pytest.raises(ConvergenceError, match="lambda"):
            continuation_solve(sc, 1, chain, BASIS,
                               freeze_point=np.array([-np.pi / 2]), max_iter=6)

    def test_works_on_stochastic_tree(self):
        sc = make_scenario(
            a=varying_a(0.2), K=2.0, kappa=0.2, T=0.5,
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
        )
        tree = build_tree(1, 4, 2, sc.horizon)
        sol, reports = continuation_solve(sc, 2, tree, BASIS, tol=1e-10)
        assert all(r.converged for r in reports)
        assert pair_gap(sol, solve_tree(sc, tree, BASIS)) < 1e-8

    def test_divergence_form_adapted_tree_matches_tree_solve(self):
        # the Picard source is assembled in the scenario's own form, so the
        # continuation limit is the divergence-form tree solve
        sc = make_scenario(
            a=lambda t, X, hist: 0.5 * (1.0 + 0.2 * np.sin(X[:, 0])) + 0.05 * np.sin(hist.w[0]),
            sigma=lambda t, X, hist: 0.2 * (1.0 + 0.2 * np.cos(X[:, 0])) + 0.0 * hist.w[0],
            b=0.1, c=0.2, nu=0.05, K=2.0, kappa=0.2, T=0.5, form="divergence",
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
        )
        tree = build_tree(1, 3, 2, sc.horizon)
        sol, reports = continuation_solve(sc, 2, tree, BASIS, tol=1e-11)
        ref = solve_tree(sc, tree, BASIS)
        assert all(r.converged for r in reports)
        scale = max(np.abs(lv).max() for lv in ref.p.levels)
        rel = max(np.abs(x - y).max() for x, y in zip(sol.p.levels, ref.p.levels)) / scale
        assert rel < 1e-8


def picard_cases():
    """A B=3 Markov tree and a deterministic chain, at theta = 1 and 1/2."""
    markov = markov_scenario(1)
    chain_scn = cos_scenario(a=varying_a(0.2), K=2.0, kappa=0.2)
    for theta in (1.0, 0.5):
        yield pytest.param(markov, build_tree(1, 3, 3, markov.horizon), theta,
                           id=f"markov-B3-theta{theta}")
        yield pytest.param(chain_scn, build_chain(1, 16, chain_scn.horizon), theta,
                           id=f"chain-theta{theta}")


class TestOneProviderPerCall:
    """The Picard steps share one provider and move no digit."""

    @staticmethod
    def assert_bit_equal(x, y):
        for a, b in zip(x.p.levels + x.q.levels, y.p.levels + y.q.levels):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scn, filtration, theta", picard_cases())
    def test_freeze_and_iterate_is_bit_equal_to_the_reference(self, scn, filtration, theta):
        scheme = SchemeConfig(theta=theta)
        sol, report = freeze_and_iterate(scn, np.zeros(1), filtration, BASIS, scheme=scheme)
        ref, ref_report = picard_reference(scn, np.zeros(1), filtration, BASIS, scheme=scheme)
        assert report.converged and report.iterations > 2
        assert report == ref_report
        self.assert_bit_equal(sol, ref)

    @pytest.mark.parametrize("scn, filtration, theta", picard_cases())
    def test_continuation_is_bit_equal_to_the_reference(self, scn, filtration, theta,
                                                        monkeypatch):
        scheme = SchemeConfig(theta=theta)
        sol, reports = continuation_solve(scn, 2, filtration, BASIS, scheme=scheme)
        monkeypatch.setattr("bspde.frozen.freeze_and_iterate", picard_reference)
        ref, ref_reports = continuation_solve(scn, 2, filtration, BASIS, scheme=scheme)
        assert len(reports) == 3 and reports == ref_reports
        self.assert_bit_equal(sol, ref)

    @staticmethod
    def picard_inputs():
        """t-free Markov fields, read once per Wiener state, and the same
        fields read node by node."""
        return [pytest.param(markov_scenario(1), id="markov"),
                pytest.param(declared_path_dependent(markov_scenario(1)), id="per-node")]

    @pytest.mark.parametrize("scn", picard_inputs())
    def test_picard_steps_assemble_nothing_new(self, assemblies, scn):
        # every operator of the call is assembled by the initial solve or the
        # first step, whatever the step count
        tree = build_tree(1, 3, 3, scn.horizon)
        counts = []
        for max_iter in (2, 6):
            assemblies.clear()
            _, report = freeze_and_iterate(scn, np.zeros(1), tree, BASIS, tol=0.0,
                                           max_iter=max_iter)
            assert report.iterations == max_iter
            counts.append(len(assemblies))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("bound", [None, 0], ids=["bounded", "nothing-kept"])
    @pytest.mark.parametrize("scn", picard_inputs())
    def test_picard_steps_invert_nothing_new(self, monkeypatch, scn, bound):
        # the call holds each level's operators with their inverse, whatever
        # the byte bound keeps: the initial solve inverts every level once,
        # and no Picard step inverts
        if bound is not None:
            monkeypatch.setattr("bspde.solver._CACHE_BYTES", bound)
        inverses = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a, _inv=np.linalg.inv: inverses.append(a.shape) or _inv(a))
        tree = build_tree(1, 3, 3, scn.horizon)
        counts = []
        for max_iter in (2, 6):
            inverses.clear()
            _, report = freeze_and_iterate(scn, np.zeros(1), tree, BASIS, tol=0.0,
                                           max_iter=max_iter)
            assert report.iterations == max_iter
            counts.append(len(inverses))
        assert counts == [tree.n_steps, tree.n_steps]
        # the provider itself keeps no per-level object: the call holds them
        fields = LevelFields(scn, tree, BASIS)
        assert fields.operators(2) is not fields.operators(2)
        assert not any(isinstance(value, LevelOperators) for _, value in fields._rows.values())

    def test_picard_steps_read_a_t_dependent_field_once_per_level(self):
        # tiny.scn's F reads t: its rows are kept by level for the whole call
        scn = load_scenario(str(Path(__file__).parent / "data" / "tiny.scn"))[0]
        assert scn.F.is_deterministic and not scn.F.t_free
        times = []
        F = replace(scn.F, fn=lambda t, X, h, fn=scn.F.fn: times.append(t) or fn(t, X, h))
        tree, basis = build_tree(1, 4, 3, scn.horizon), SpectralBasis(1, 6, np.pi)
        sol, report = freeze_and_iterate(scn.with_fields(F=F), np.zeros(1), tree, basis)
        assert report.converged and report.iterations == 9
        assert sorted(times) == [tree.time_of(level) for level in range(tree.n_steps)]
        ref, ref_report = picard_reference(scn, np.zeros(1), tree, basis)
        assert report == ref_report
        self.assert_bit_equal(sol, ref)
