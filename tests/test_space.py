"""Spectral basis, Sobolev norms, operator assembly, and coercivity probing."""

from pathlib import Path

import numpy as np
import pytest

from bspde import (
    CoefficientField,
    PathHistory,
    SpatialField,
    SpectralBasis,
    assemble_L,
    assemble_M,
    load_scenario,
    load_scenario_text,
)
from bspde.scenario import FORMS
from helpers import (DIVERGENCE_MARKOV_TEXT, MARKOV_2D_TEXT, assemble_L_at, assemble_L_reference,
                     assemble_M_at, assemble_M_reference, inner, make_scenario)
from oracles import (coercivity_probe, exponential_matrix, exponential_operators,
                     to_exponential)

TINY = Path(__file__).parent / "data" / "tiny.scn"


def zero_mode_index(basis):
    return int(np.where((basis.modes == 0).all(axis=1))[0][0])


class TestProjection:
    def test_project_reconstruct_roundtrip(self):
        basis = SpectralBasis(1, 6, np.pi)
        x = basis.grid_points[:, 0]
        vals = np.sin(2 * x) + 0.3 * np.cos(5 * x) - 1.2
        f = SpatialField(basis, basis.project(vals))
        assert np.allclose(f.values(), vals, atol=1e-12)

    def test_constant_hits_zero_mode(self):
        basis = SpectralBasis(2, 3, 1.5)
        f = SpatialField(basis, basis.project(np.full(basis.grid_points.shape[0], 4.25)))
        idx = zero_mode_index(basis)
        assert f.coeffs[idx] == pytest.approx(4.25)
        others = np.delete(f.coeffs, idx)
        assert np.allclose(others, 0.0, atol=1e-12)

    def test_cosine_splits_into_half_coefficients(self):
        # cos x is the cos column of the pair k = +-1, scaled by 1/sqrt(2); on
        # the exponentials it is half of each
        basis = SpectralBasis(1, 4, np.pi)
        f = SpatialField(basis, basis.project(np.cos(basis.grid_points[:, 0])))
        modes = basis.modes[:, 0]
        assert f.coeffs[modes == -1][0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert np.allclose(f.coeffs[modes != -1], 0.0, atol=1e-12)
        c = to_exponential(basis, f.coeffs)
        assert c[modes == 1][0] == pytest.approx(0.5, abs=1e-12)
        assert c[modes == -1][0] == pytest.approx(0.5, abs=1e-12)

    def test_evaluate_at_off_grid(self):
        basis = SpectralBasis(1, 5, np.pi)
        f = SpatialField(basis, basis.project(np.cos(basis.grid_points[:, 0])))
        pts = np.array([[0.0], [0.7], [-2.1]])
        assert np.allclose(basis.evaluate_at(f.coeffs, pts), np.cos(pts[:, 0]), atol=1e-12)

    @pytest.mark.parametrize("d, M", [(1, 6), (2, 3), (3, 1)])
    def test_analysis_inverts_synthesis(self, d, M):
        basis = SpectralBasis(d, M, 1.3)
        assert np.abs(basis._A @ basis._S - np.eye(basis.n_modes)).max() <= 1e-14

    @pytest.mark.parametrize("d, M", [(1, 6), (2, 3)])
    def test_columns_are_the_exponentials_in_cos_sin_pairs(self, d, M):
        # the basis at any point is exp(i k . x) weighed by ``to_exponential``,
        # which is built from the mode list alone, and E is unitary
        basis = SpectralBasis(d, M, 1.3)
        rng = np.random.default_rng(2)
        u, x = rng.standard_normal(basis.n_modes), rng.uniform(-1.3, 1.3, (7, d))
        want = np.exp(1j * x @ basis.freqs.T) @ to_exponential(basis, u)
        assert np.abs(want.imag).max() <= 1e-13
        assert np.abs(basis.evaluate_at(u, x) - want.real).max() <= 1e-13
        E = exponential_matrix(basis)
        assert np.abs(E @ E.conj().T - np.eye(basis.n_modes)).max() <= 1e-15

    @pytest.mark.parametrize("d, alpha", [(1, (1,)), (1, (2,)), (1, (3,)), (2, (1, 0)),
                                          (2, (0, 1)), (2, (1, 1)), (2, (3, 0)), (2, (2, 1))])
    def test_derivative_is_the_exponential_symbol(self, d, alpha):
        # D^alpha multiplies the coefficient of exp(i k . x) by (i k)^alpha
        basis = SpectralBasis(d, {1: 6, 2: 3}[d], 1.3)
        u = np.random.default_rng(3).standard_normal(basis.n_modes)
        symbol = np.prod((1j * basis.freqs) ** np.array(alpha), axis=1)
        want = symbol * to_exponential(basis, u)
        got = to_exponential(basis, basis.derivative(alpha, u))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestNorms:
    def test_parseval(self):
        basis = SpectralBasis(1, 6, np.pi)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(basis.grid_points.shape[0])
        f = SpatialField(basis, basis.project(vals))
        # normalised inner product: the L2 norm squared is the grid mean
        assert basis.norm_sq(f.coeffs, order=0) == pytest.approx(np.mean(vals**2), rel=1e-12)

    def test_cosine_negative_order_norm(self):
        basis = SpectralBasis(1, 4, np.pi)
        f = SpatialField(basis, basis.project(np.cos(basis.grid_points[:, 0])))
        # two coefficients of 1/2 at k = +-1 with weight (1+1)^(-1)
        expected_sq = 2 * (0.5**2) * (1 + 1) ** (-1)
        assert basis.norm_sq(f.coeffs, order=-1) == pytest.approx(expected_sq, abs=1e-13)
        assert f.norm(order=-1) == pytest.approx(0.5, abs=1e-13)

    def test_single_mode_norm_scaling(self):
        basis = SpectralBasis(1, 4, np.pi)
        coeffs = np.zeros(basis.n_modes)
        coeffs[basis.modes[:, 0].tolist().index(2)] = 1.0
        for order in (-1, 0, 1, 2):
            assert basis.norm_sq(coeffs, order) == pytest.approx((1 + 4.0) ** order, rel=1e-13)

    def test_sine_first_order_norm(self):
        basis = SpectralBasis(1, 4, np.pi)
        f = SpatialField(basis, basis.project(np.sin(basis.grid_points[:, 0])))
        assert f.norm(1) == pytest.approx(1.0, abs=1e-12)
        assert f.norm(0) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_norm_monotone_in_order(self):
        basis = SpectralBasis(1, 6, np.pi)
        rng = np.random.default_rng(9)
        f = SpatialField(basis, basis.project(rng.standard_normal(basis.grid_points.shape[0])))
        norms = [basis.norm_sq(f.coeffs, n) for n in (-1, 0, 1, 2)]
        assert norms == sorted(norms)

    def test_inner_product_polarisation(self):
        basis = SpectralBasis(1, 5, np.pi)
        rng = np.random.default_rng(13)
        u = basis.project(rng.standard_normal(11))
        v = basis.project(rng.standard_normal(11))
        ip = inner(basis, u, v, order=1)
        expand = 0.25 * (basis.norm_sq(u + v, 1) - basis.norm_sq(u - v, 1))
        assert ip == pytest.approx(expand, rel=1e-10)

    def test_derivative(self):
        basis = SpectralBasis(1, 5, np.pi)
        f = SpatialField(basis, basis.project(np.sin(basis.grid_points[:, 0])))
        df = basis.derivative((1,), f.coeffs)
        g = SpatialField(basis, basis.project(np.cos(basis.grid_points[:, 0])))
        assert np.allclose(df, g.coeffs, atol=1e-12)
        d2f = basis.derivative((2,), f.coeffs)
        assert np.allclose(d2f, -f.coeffs, atol=1e-12)

    def test_derivative_rescales_with_halfwidth(self):
        basis = SpectralBasis(1, 5, 2.0)
        x = basis.grid_points[:, 0]
        f = SpatialField(basis, basis.project(np.sin(np.pi * x / 2.0)))
        df = basis.derivative((1,), f.coeffs)
        g = SpatialField(basis, basis.project(np.pi / 2.0 * np.cos(np.pi * x / 2.0)))
        assert np.allclose(df, g.coeffs, atol=1e-12)


class TestAssembly:
    def test_heat_generator_is_diagonal(self):
        basis = SpectralBasis(1, 4, np.pi)
        L = assemble_L_at(make_scenario(), 0.0, None, basis)
        k = basis.modes[:, 0].astype(float)
        assert np.allclose(L, np.diag(-0.5 * k**2), atol=1e-12)

    def test_zero_order_term_shifts_diagonal(self):
        basis = SpectralBasis(1, 3, np.pi)
        L0 = assemble_L_at(make_scenario(), 0.0, None, basis)
        L1 = assemble_L_at(make_scenario(c=0.7), 0.0, None, basis)
        assert np.allclose(L1, L0 - 0.7 * np.eye(basis.n_modes), atol=1e-12)

    def test_drift_term_is_imaginary_diagonal(self):
        basis = SpectralBasis(1, 3, np.pi)
        L = assemble_L_at(make_scenario(b=0.4, K=2.0), 0.0, None, basis)
        k = basis.modes[:, 0].astype(float)
        E = exponential_matrix(basis)
        assert np.allclose(E @ L @ E.conj().T, np.diag(-0.5 * k**2 + 0.4 * 1j * k), atol=1e-12)

    def test_divergence_and_nondivergence_agree_for_constant_a(self):
        basis = SpectralBasis(1, 4, np.pi)
        Ln = assemble_L_at(make_scenario(), 0.0, None, basis)
        Ld = assemble_L_at(make_scenario(form="divergence"), 0.0, None, basis)
        assert np.allclose(Ln, Ld, atol=1e-12)

    def test_variable_a_product_rule(self):
        # D(a Du) = a D^2 u + (Da)(Du): the two forms differ by the
        # first-order correction with coefficient a'
        basis = SpectralBasis(1, 8, np.pi)
        a_fn = lambda t, X: 0.75 + 0.2 * np.sin(X[:, 0])
        da_fn = lambda t, X: 0.2 * np.cos(X[:, 0])
        sc_n = make_scenario(a=a_fn, K=4.0)
        sc_d = make_scenario(a=a_fn, K=4.0, form="divergence")
        sc_corr = make_scenario(a=a_fn, b=da_fn, K=4.0)
        Ld = assemble_L_at(sc_d, 0.0, None, basis)
        Lc = assemble_L_at(sc_corr, 0.0, None, basis)
        rng = np.random.default_rng(3)
        u = np.zeros(basis.n_modes)
        # keep the trial band-limited enough that products stay alias-free
        low = np.abs(basis.modes[:, 0]) <= 3
        u[low] = rng.standard_normal(low.sum())
        assert np.allclose(Ld @ u, Lc @ u, atol=1e-10)

    def test_mode_truncation_consistency(self):
        # constant-coefficient operators are diagonal, so the coarse matrix is
        # the centred submatrix of the fine one
        fine = SpectralBasis(1, 4, np.pi)
        coarse = SpectralBasis(1, 2, np.pi)
        sc = make_scenario(b=0.3, c=0.2, K=2.0)
        Lf = assemble_L_at(sc, 0.0, None, fine)
        Lc = assemble_L_at(sc, 0.0, None, coarse)
        fine_modes = fine.modes[:, 0].tolist()
        sel = [fine_modes.index(m) for m in coarse.modes[:, 0]]
        assert np.allclose(Lf[np.ix_(sel, sel)], Lc, atol=1e-12)

    def test_noise_coupling_zero_when_absent(self):
        basis = SpectralBasis(1, 3, np.pi)
        Ms = assemble_M_at(make_scenario(), 0.0, None, basis)
        assert len(Ms) == 1
        assert np.allclose(Ms[0], 0.0, atol=1e-14)

    def test_noise_coupling_constant_coefficients(self):
        basis = SpectralBasis(1, 3, np.pi)
        Ms = assemble_M_at(make_scenario(sigma=0.4, nu=0.25, kappa=0.2), 0.0, None, basis)
        k = basis.modes[:, 0].astype(float)
        expected = np.diag(0.4 * 1j * k + 0.25)
        E = exponential_matrix(basis)
        assert np.allclose(E @ Ms[0] @ E.conj().T, expected, atol=1e-12)

    def test_noise_coupling_channel_count(self):
        basis = SpectralBasis(1, 2, np.pi)
        sc = make_scenario(d1=3, sigma=np.array([[0.2, 0.0, 0.1]]), nu=np.array([0.0, 0.3, 0.0]),
                           kappa=0.2)
        Ms = assemble_M_at(sc, 0.0, None, basis)
        assert len(Ms) == 3
        k = basis.modes[:, 0].astype(float)
        assert np.allclose(Ms[1], np.diag(0.3 * np.ones_like(k)), atol=1e-12)


    @staticmethod
    def wavy(shape, level, phase):
        """An adapted field: ``level`` on the diagonal plus small waves in x, t
        and w that depend on a component's index sum (so a matrix is symmetric)."""
        def fn(t, X, hist):
            out = np.empty((len(X),) + shape)
            for idx in np.ndindex(shape):
                s = sum(idx)
                out[(slice(None),) + idx] = level * (len(set(idx)) <= 1) + 0.05 * np.sin(
                    X[:, s % X.shape[1]] + phase * (s + 1) + np.sum(hist.w) + t)
            return out
        return CoefficientField.adapted(fn, shape, markov=True)

    @pytest.mark.parametrize("pattern", ["live", "constant_a", "zero_b_c_sigma"])
    @pytest.mark.parametrize("d, dw", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("form", FORMS)
    def test_term_table_matches_the_hand_written_loops(self, form, d, dw, pattern):
        # every (D^outer, coefficient, D^inner) term table forms the same bytes
        # as the four loops it replaced, at three adapted histories
        basis = SpectralBasis(d, {1: 4, 2: 2, 3: 1}[d], np.pi)
        zero = CoefficientField.zero
        fields = {"a": self.wavy((d, d), 0.6, 0.3), "b": self.wavy((d,), 0.1, 1.1),
                  "c": self.wavy((), 0.2, 2.3), "sigma": self.wavy((d, dw), 0.3, 0.7),
                  "nu": self.wavy((dw,), 0.05, 1.9)}
        if pattern == "constant_a":
            fields["a"] = CoefficientField.constant(0.6 * np.eye(d) + 0.05, (d, d))
        elif pattern == "zero_b_c_sigma":
            fields.update(b=zero((d,)), c=zero(()), sigma=zero((d, dw)))
        scenario = make_scenario(d=d, d1=dw, form=form, **fields)
        rng = np.random.default_rng(7)
        histories = [(0.0, PathHistory.empty(dw)),
                     (0.2, PathHistory.from_increments(rng.normal(0, 0.3, (2, dw)), 0.1)),
                     (0.25, PathHistory.from_increments(rng.normal(0, 0.2, (5, dw)), 0.05))]
        for t, hist in histories:
            got, want = assemble_L_at(scenario, t, hist, basis), \
                assemble_L_reference(scenario, t, hist, basis)
            assert got.tobytes() == want.tobytes()
            got_M = assemble_M_at(scenario, t, hist, basis)
            want_M = assemble_M_reference(scenario, t, hist, basis)
            assert [m.tobytes() for m in got_M] == [m.tobytes() for m in want_M]

    @pytest.mark.parametrize("form", FORMS)
    def test_stacked_assembly_is_each_states_assembly(self, form):
        # the stacked rows of k states are each state's own assembly, and the
        # hand-written loops', byte for byte; at w1 = 0 c vanishes, and that
        # state skips its term as a lone assembly does
        scn = load_scenario_text(MARKOV_2D_TEXT.replace("form = divergence",
                                                        f"form = {form}"))[0]
        basis, t = SpectralBasis(2, 2, np.pi), 0.25
        W = np.array([[0.0, 0.4], [0.3, -0.2], [-0.0, 0.4], [0.7, 1.1], [0.0, 0.0]])
        hists = [PathHistory(t, t, w[None], w) for w in W]
        X = basis.grid_points
        samples = {name: f.evaluate_states(t, X, W)
                   for name, f in scn.coefficient_fields().items()}
        assert not samples["c"][0].any() and samples["c"][1].any()
        L, Ms = assemble_L(scn, samples, basis), assemble_M(scn, samples, basis)
        assert L.shape == (len(W),) + (basis.n_modes,) * 2
        assert Ms.shape == (len(W), scn.dim_w) + (basis.n_modes,) * 2
        for i, hist in enumerate(hists):
            for want in (assemble_L_at(scn, t, hist, basis),
                         assemble_L_reference(scn, t, hist, basis)):
                assert L[i].tobytes() == want.tobytes()
            for want in (assemble_M_at(scn, t, hist, basis),
                         assemble_M_reference(scn, t, hist, basis)):
                assert [m.tobytes() for m in Ms[i]] == [m.tobytes() for m in want]

    @pytest.mark.parametrize("text", ["tiny", "divergence-2d"])
    def test_operators_are_the_exponential_operators(self, text):
        # L and M^k in cos/sin coordinates are V L_c V^H, L_c formed on the
        # exponentials with the symbols (i k)^alpha and V = E^H
        if text == "tiny":
            scn, basis = load_scenario(TINY)[0], SpectralBasis(1, 4, np.pi)
        else:
            scn, basis = load_scenario_text(DIVERGENCE_MARKOV_TEXT)[0], SpectralBasis(2, 3, np.pi)
        hist = PathHistory.from_increments(np.array([[0.3], [-0.1]]), 0.1)
        V = exponential_matrix(basis).conj().T
        L_c, Ms_c = exponential_operators(scn, 0.2, hist, basis)
        got_ops = [assemble_L_at(scn, 0.2, hist, basis)] + assemble_M_at(scn, 0.2, hist, basis)
        for got, want in zip(got_ops, [L_c] + Ms_c):
            want = V @ want @ V.conj().T
            assert np.abs(want.imag).max() <= 1e-13 * np.abs(want).max()
            assert np.abs(got - want.real).max() <= 1e-13 * np.abs(want).max()


class TestAdjointStructure:
    def make_setup(self):
        basis = SpectralBasis(1, 16, np.pi)
        sigma_fn = lambda t, X: 0.3 + 0.1 * np.sin(X[:, 0])
        sc = make_scenario(sigma=sigma_fn, nu=0.2, kappa=0.2, K=2.0, form="divergence")
        M = assemble_M_at(sc, 0.0, None, basis)[0]
        return basis, sigma_fn, 0.2, M

    def band_limited(self, basis, seed, half_band=4):
        rng = np.random.default_rng(seed)
        vals = np.zeros(basis.grid_points.shape[0])
        x = basis.grid_points[:, 0]
        for k in range(1, half_band + 1):
            vals += rng.standard_normal() * np.cos(k * x) + rng.standard_normal() * np.sin(k * x)
        vals += rng.standard_normal()
        return SpatialField(basis, basis.project(vals))

    def test_formal_adjoint_identity(self):
        # (D(sigma v) + nu v, u) = (v, -sigma Du + nu u): integration by parts
        # flips the sign of the transport part
        basis, sigma_fn, nu0, M = self.make_setup()
        x = basis.grid_points
        sig_grid = sigma_fn(0.0, x)
        for seed in range(5):
            u = self.band_limited(basis, 100 + seed)
            v = self.band_limited(basis, 200 + seed)
            lhs = inner(basis, M @ v.coeffs, u.coeffs, order=0)
            du = basis.derivative((1,), u.coeffs)
            du_grid = basis.evaluate_at(du, x)
            rhs_field = SpatialField(
                basis, basis.project(-sig_grid * du_grid + nu0 * u.values()))
            rhs = inner(basis, v.coeffs, rhs_field.coeffs, order=0)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-8

    def test_constant_coefficient_norm_identity(self):
        # with constant sigma, nu the cross term integrates to zero, so the
        # collocation matrix and the first-order symbol have equal action norms
        basis = SpectralBasis(1, 6, np.pi)
        sc = make_scenario(sigma=0.4, nu=0.25, kappa=0.2, form="divergence")
        M = assemble_M_at(sc, 0.0, None, basis)[0]
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = rng.standard_normal(basis.n_modes)
            direct = basis.norm_sq(M @ u, order=0)
            symbol = 0.4 * basis.derivative((1,), u) + 0.25 * u
            assert direct == pytest.approx(basis.norm_sq(symbol, order=0), rel=1e-10)


class TestCoercivityProbe:
    def trials(self, basis, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(basis.n_modes) for _ in range(n)]

    def test_heat_probe_tight(self):
        basis = SpectralBasis(1, 4, np.pi)
        sc = make_scenario()
        L = assemble_L_at(sc, 0.0, None, basis)
        Ms = assemble_M_at(sc, 0.0, None, basis)
        lam, Lam, ok = coercivity_probe(basis, L, Ms, self.trials(basis))
        assert ok
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert Lam == pytest.approx(1.0, abs=1e-9)
        assert lam >= sc.ellipticity_kappa

    def test_zero_operator_flagged(self):
        basis = SpectralBasis(1, 4, np.pi)
        zero = np.zeros((basis.n_modes, basis.n_modes))
        lam, Lam, ok = coercivity_probe(basis, zero, [zero], self.trials(basis))
        assert not ok

    def test_constant_coefficients_respect_kappa(self):
        basis = SpectralBasis(1, 4, np.pi)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a0 = rng.uniform(0.3, 0.9)
            s0 = rng.uniform(0.0, np.sqrt(max(2 * a0 - 0.25, 0.0)) * 0.95)
            sc = make_scenario(a=a0, sigma=s0, kappa=0.25, K=2.0)
            L = assemble_L_at(sc, 0.0, None, basis)
            Ms = assemble_M_at(sc, 0.0, None, basis)
            lam, Lam, ok = coercivity_probe(basis, L, Ms, self.trials(basis, seed=seed))
            assert ok
            assert lam >= 0.25 - 1e-8
            assert Lam < np.inf
