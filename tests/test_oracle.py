"""Closed-form references: Gaussian bump flow, Feynman-Kac sampling, dense solve."""

import numpy as np
import pytest

import bspde.errors
from bspde import (
    BudgetError,
    SpectralBasis,
    StructuralError,
    build_tree,
    solve_dense,
    solve_tree,
)
from helpers import make_scenario, markov_scenario
from oracles import (GaussianBump, feynman_kac_mc, heat_reference, heat_value_quad,
                     periodized_bump_heat)

BASIS = SpectralBasis(1, 12, np.pi)


class TestGaussianBump:
    def test_pointwise_values(self):
        bump = GaussianBump(1.3, 0.5)
        x = np.array([[0.0], [0.5]])
        out = bump.evaluate(x)
        assert out[0] == pytest.approx(1.3)
        assert out[1] == pytest.approx(1.3 * np.exp(-0.5**2 / (2 * 0.5**2)))

    def test_center_shift(self):
        bump = GaussianBump(1.0, 0.4, center=np.array([0.7]))
        assert bump.evaluate(np.array([[0.7]]))[0] == pytest.approx(1.0)
        left = bump.evaluate(np.array([[0.2]]))[0]
        right = bump.evaluate(np.array([[1.2]]))[0]
        assert left == pytest.approx(right, rel=1e-12)


class TestHeatReference:
    def test_terminal_time_reproduces_datum(self):
        bump = GaussianBump(1.0, 0.5)
        ref = heat_reference(bump, 0.5, 0.5, 0.5, BASIS)
        x = BASIS.grid_points
        assert np.allclose(ref.values(), bump.evaluate(x), atol=1e-12)

    def test_matches_closed_form_at_earlier_times(self):
        # the reference is the whole-line flow sampled on the grid, so it
        # matches the single-image Gaussian formula exactly
        bump = GaussianBump(0.8, 0.45)
        x = BASIS.grid_points[:, 0]
        for t in (0.0, 0.2, 0.4):
            ref = heat_reference(bump, 0.5, t, 0.5, BASIS)
            expected = periodized_bump_heat(x, t, 0.5, 0.5, 0.8, 0.45, np.pi, n_images=0)
            assert np.allclose(ref.values(), expected, atol=1e-12)

    def test_wraparound_stays_below_tail_mass(self):
        # against the image-summed torus solution the gap is just the wrapped
        # tails; for a width-0.3 bump they sit far below 1e-4
        bump = GaussianBump(1.0, 0.3)
        x = BASIS.grid_points[:, 0]
        ref = heat_reference(bump, 0.5, 0.0, 0.4, BASIS)
        torus = periodized_bump_heat(x, 0.0, 0.4, 0.5, 1.0, 0.3, np.pi)
        gap = np.max(np.abs(ref.values() - torus))
        assert 0 < gap < 1e-4

    def test_matches_line_quadrature_for_narrow_bump(self):
        # for a narrow bump far from the seam the torus and line solutions
        # agree to the size of the wrapped tails
        bump = GaussianBump(1.0, 0.3)
        ref = heat_reference(bump, 0.5, 0.0, 0.4, BASIS)
        for xq in (0.0, 0.6, -1.1):
            line = heat_value_quad(xq, 0.0, 0.4, 0.5,
                                   lambda y: np.exp(-y**2 / (2 * 0.3**2)))
            got = BASIS.evaluate_at(ref.coeffs, np.array([[xq]]))[0]
            assert got == pytest.approx(line, abs=1e-6)

    def test_amplitude_scales_linearly(self):
        a, b = GaussianBump(1.0, 0.5), GaussianBump(2.5, 0.5)
        ra = heat_reference(a, 0.5, 0.1, 0.5, BASIS)
        rb = heat_reference(b, 0.5, 0.1, 0.5, BASIS)
        assert np.allclose(rb.coeffs, 2.5 * ra.coeffs, atol=1e-12)


class TestFeynmanKac:
    def test_constant_terminal_discounts_exactly(self):
        sc = make_scenario(phi=2.0, c=0.3, T=0.5)
        est, se = feynman_kac_mc(sc, np.zeros(1), 0.0, 500, seed=1)
        assert se == 0.0
        assert est == pytest.approx(2.0 * np.exp(-0.15), rel=1e-12)

    def test_constant_source_integrates_exactly(self):
        sc = make_scenario(F=1.0, phi=0.0, T=1.0)
        est, se = feynman_kac_mc(sc, np.zeros(1), 0.25, 200, seed=2)
        assert se == 0.0
        assert est == pytest.approx(0.75, rel=1e-12)

    def test_heat_kernel_within_sampling_error(self):
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5)
        est, se = feynman_kac_mc(sc, np.array([0.3]), 0.0, 20_000, seed=7)
        exact = np.exp(-0.25) * np.cos(0.3)
        assert se > 0
        assert abs(est - exact) < 3.0 * se

    def test_seed_determinism(self):
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5)
        a = feynman_kac_mc(sc, np.array([0.1]), 0.0, 1000, seed=3)
        b = feynman_kac_mc(sc, np.array([0.1]), 0.0, 1000, seed=3)
        assert a == b

    def test_rejects_noise_coupling(self):
        sc = make_scenario(sigma=0.3, kappa=0.2, T=0.5)
        with pytest.raises(StructuralError):
            feynman_kac_mc(sc, np.zeros(1), 0.0, 100, seed=0)
        sc = make_scenario(nu=0.2, T=0.5)
        with pytest.raises(StructuralError):
            feynman_kac_mc(sc, np.zeros(1), 0.0, 100, seed=0)

    def test_rejects_adapted_coefficients(self):
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) + hist.w[0], T=0.5)
        with pytest.raises(StructuralError):
            feynman_kac_mc(sc, np.zeros(1), 0.0, 100, seed=0)

    def test_rejects_bad_evaluation_point(self):
        sc = make_scenario(T=0.5)
        with pytest.raises((StructuralError, ValueError)):
            feynman_kac_mc(sc, np.zeros(2), 0.0, 100, seed=0)
        with pytest.raises((StructuralError, ValueError)):
            feynman_kac_mc(sc, np.zeros(1), 0.9, 100, seed=0)


class TestSolveDense:
    def test_budget_guard(self, monkeypatch):
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) + 0.0 * hist.w[0], T=0.5)
        tree = build_tree(1, 4, 2, sc.horizon)
        unknowns = 15 * BASIS.n_modes  # p on the interior nodes; the leaves are known
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", unknowns ** 2 * 8 - 1)
        with pytest.raises(BudgetError) as exc:
            solve_dense(sc, tree, BASIS)
        assert exc.value.count == unknowns ** 2 * 8

    @pytest.mark.parametrize("reads", ["w", "history"])
    def test_leaves_are_the_solvers_terminal_projection(self, reads):
        # the leaves are no unknowns: both paths project phi node by node
        def last_step(t, X, hist):
            last = hist.increments[-1, 0] if hist.n_steps else 0.0
            return np.cos(X[:, 0]) * (1.0 + 0.5 * last) + hist.w[0]
        sc = (markov_scenario(1) if reads == "w"
              else make_scenario(phi=last_step, F=last_step, sigma=0.2, kappa=0.2))
        assert sc.phi.markov == (reads == "w")
        tree = build_tree(1, 3, 3, sc.horizon)
        dense, fast = solve_dense(sc, tree, BASIS), solve_tree(sc, tree, BASIS)
        assert len(dense.p.levels) == len(fast.p.levels) == tree.n_steps + 1
        assert dense.p.levels[-1].shape == (tree.levels[-1].n_nodes, BASIS.n_modes)
        assert dense.p.levels[-1].tobytes() == fast.p.levels[-1].tobytes()
