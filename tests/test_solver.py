"""Backward theta scheme on trees and chains, residuals, and regression."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bspde import (
    AdaptedField,
    BudgetError,
    CoefficientField,
    LevelFields,
    LevelOperators,
    NumericError,
    PathEnsemble,
    SchemeConfig,
    SpatialField,
    SpectralBasis,
    StructuralError,
    backward_solve,
    build_chain,
    build_tree,
    freeze_and_iterate,
    load_scenario,
    load_scenario_text,
    mixed_norm_sq,
    pair_difference,
    sample_paths,
    solve_dense,
    solve_regression,
    solve_tree,
    strong_residual,
)
import bspde.errors
import bspde.solver
from bspde.analysis import _source_field
from bspde.solver import _backward, _distinct_rows, _level_step, _monomial_features
from helpers import (ADAPTED_TREE_TEXT, DIVERGENCE_MARKOV_TEXT, counting,
                     declared_time_dependent, e_sup_norm_sq_reference, ensemble_history,
                     level_expected_norm_sq_reference, make_scenario, markov_scenario,
                     regression_reference, sup_e_norm_sq_reference, time_norm_sq_reference,
                     weak_residual, wiener_values)
from oracles import (MultiIndex, higher_regularity_solve, ito_identity_check,
                     scalar_theta_chain, to_exponential)

BASIS = SpectralBasis(1, 4, np.pi)
TINY = Path(__file__).parent / "data" / "tiny.scn"


def zero_ops(n_modes, dim_w):
    # zero matrices shared by every node of a level (k = 1)
    ops = LevelOperators(np.zeros((1, n_modes, n_modes)),
                         np.zeros((1, dim_w, n_modes, n_modes)))
    return lambda level: ops


def node_operators(ops):
    # every node's own (L, Ms), copied from its row
    return ops.L[ops.index], ops.Ms[ops.index]


def zero_source(level):
    return np.zeros((1, BASIS.n_modes))


class TestBackwardSolveProviders:
    """Driver-level solves with hand-built generators on the level-array contract.

    Identically-zero operators fall outside what a validated scenario can
    express (superparabolicity forces a away from zero), so these exactness
    checks feed ``backward_solve`` level arrays directly.
    """

    def test_zero_generator_transports_terminal(self):
        tree = build_tree(1, 3, 2, 0.5)
        ghat = BASIS.project(np.sin(BASIS.grid_points[:, 0]))
        sol = backward_solve(
            tree, BASIS, SchemeConfig(theta=1.0), ghat[None, :],
            zero_ops(BASIS.n_modes, 1), zero_source,
        )
        for level in range(tree.n_steps + 1):
            assert np.allclose(sol.p.levels[level], ghat, atol=1e-13)
        for level in range(tree.n_steps):
            assert np.allclose(sol.q.levels[level], 0.0, atol=1e-13)

    def test_martingale_terminal_recovers_integrand(self):
        # terminal g . W_T solves p(t) = g . W_t with q = g identically
        tree = build_tree(1, 3, 3, 0.75)
        ghat = BASIS.project(np.cos(BASIS.grid_points[:, 0]))
        sol = backward_solve(
            tree, BASIS, SchemeConfig(theta=1.0),
            wiener_values(tree, tree.n_steps)[:, :1] * ghat,
            zero_ops(BASIS.n_modes, 1), zero_source,
        )
        for level in range(tree.n_steps + 1):
            expected = wiener_values(tree, level)[:, 0:1] * ghat[None, :]
            assert np.allclose(sol.p.levels[level], expected, atol=1e-12)
        for level in range(tree.n_steps):
            assert np.allclose(sol.q.levels[level][:, 0, :], ghat[None, :], atol=1e-12)

    def test_source_accumulates_linearly(self):
        # zero generator, constant source F: p(t) = (T - t) F
        tree = build_tree(1, 4, 2, 1.0)
        fhat = BASIS.project(np.full(BASIS.grid_points.shape[0], 2.0))
        sol = backward_solve(
            tree, BASIS, SchemeConfig(theta=1.0), np.zeros((1, BASIS.n_modes)),
            zero_ops(BASIS.n_modes, 1), lambda level: fhat[None, :],
        )
        for level in range(tree.n_steps + 1):
            t = tree.time_of(level)
            assert np.allclose(sol.p.levels[level], (1.0 - t) * fhat, atol=1e-12)

    def test_per_node_matrices_match_shared_matrix(self):
        # the stacked per-node solve and the shared-matrix solve are one scheme
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
                           sigma=0.3, nu=0.1, kappa=0.2, T=0.5)
        tree = build_tree(1, 3, 2, sc.horizon)
        fields = LevelFields(sc, tree, BASIS)

        def stacked(level):
            ops = fields.operators(level)
            n = tree.levels[level].n_nodes
            return LevelOperators(np.broadcast_to(ops.L, (n,) + ops.L.shape[1:]),
                                  np.broadcast_to(ops.Ms, (n,) + ops.Ms.shape[1:]),
                                  np.arange(n))
        shared = backward_solve(tree, BASIS, SchemeConfig(theta=0.5), fields.terminal(),
                                fields.operators, fields.source)
        per_node = backward_solve(tree, BASIS, SchemeConfig(theta=0.5), fields.terminal(),
                                  stacked, fields.source)
        diff = pair_difference(shared, per_node)
        assert np.sqrt(mixed_norm_sq(diff, p_order=0, q_order=0)) < 1e-13

    def test_singular_step_names_level_and_node(self):
        tree = build_tree(1, 2, 2, 0.5)
        n = BASIS.n_modes
        L = np.zeros((2, n, n))
        L[1] = np.eye(n) / (tree.dt)  # I - dt L vanishes at node 1 only

        def ops(level):
            if level != 1:
                return LevelOperators(np.zeros((1, n, n)), np.zeros((1, 1, n, n)))
            return LevelOperators(L, np.zeros((2, 1, n, n)), np.arange(2))
        with pytest.raises(NumericError, match="level 1, node 1"):
            backward_solve(tree, BASIS, SchemeConfig(theta=1.0), np.ones((1, n)),
                           ops, zero_source)

    @pytest.mark.parametrize("index, bad_row", [
        ([1, 1, 0, 1], 0),     # a row per state: row 0's first node is node 2
        ([2, 0, 3, 1], 3)])    # a row per node: row 3 is node 2's
    @pytest.mark.parametrize("scale, message", [
        (1.0, r"level 2, node 2: "),
        (1.0 - 1e-14, r"level 2, node 2 \(amplification 1\.0e\+14\)")])
    def test_grouped_step_names_the_node_not_the_state(self, scale, message, index,
                                                      bad_row):
        # row bad_row is singular (or nearly so) and its first node is node 2
        # of level 2: the error names that node, not the row
        tree = build_tree(1, 3, 2, 0.75)
        n, k = BASIS.n_modes, max(index) + 1
        rows = np.zeros((k, n, n))
        rows[bad_row] = scale * np.eye(n) / tree.dt
        grouped = LevelOperators(rows, np.zeros((k, 1, n, n)), np.array(index))

        def ops(level):
            return grouped if level == 2 else LevelOperators(np.zeros((1, n, n)),
                                                             np.zeros((1, 1, n, n)))
        with pytest.raises(NumericError, match=message):
            backward_solve(tree, BASIS, SchemeConfig(theta=1.0), np.ones((1, n)),
                           ops, zero_source)

    @pytest.mark.parametrize("scale, message", [
        (1.0, r"level 1, node 0: "),
        (1.0 - 1e-14, r"level 1, node 0 \(amplification 1\.0e\+14\)")])
    def test_singular_shared_step_names_the_first_node(self, scale, message):
        # the inverse of a shared row raises, or the amplification guard fires
        tree = build_tree(1, 2, 2, 0.5)
        n = BASIS.n_modes
        L = np.zeros((1, n, n))
        L[0] = scale * np.eye(n) / tree.dt

        def ops(level):
            return LevelOperators(L if level == 1 else np.zeros((1, n, n)),
                                  np.zeros((1, 1, n, n)))
        with pytest.raises(NumericError, match=message):
            backward_solve(tree, BASIS, SchemeConfig(theta=1.0), np.ones((1, n)),
                           ops, zero_source)

    @pytest.mark.parametrize("L, Ms, index, message", [
        ((1, 9), (1, 1, 9), None,
         r"L \(k, m, m\) and Ms \(k, dim_w, m, m\), got L \(1, 9\) and Ms \(1, 1, 9\)"),
        ((2, 9, 9), (1, 1, 9, 9), [0, 1], r"got L \(2, 9, 9\) and Ms \(1, 1, 9, 9\)"),
        ((2, 9, 9), (2, 1, 9, 9), None, "2 operator rows need each node's row")],
        ids=["symbols", "row-counts", "no-index"])
    def test_operators_other_than_matrix_rows_are_refused(self, L, Ms, index, message):
        assert BASIS.n_modes == 9
        tree = build_tree(1, 2, 2, 0.5)

        def ops(level):
            return LevelOperators(np.zeros(L), np.zeros(Ms),
                                  None if index is None else np.array(index))
        with pytest.raises(StructuralError, match=message):
            backward_solve(tree, BASIS, SchemeConfig(), np.ones((1, 9)), ops, zero_source)

    @pytest.mark.parametrize("n, n_rows, index", [
        (1, 1, None),                 # a shared row, for any node count:
        (7, 1, None),                 # one inverse, one matrix product
        (5, 5, [3, 0, 4, 1, 2]),      # a row per node
        (5, 3, [2, 0, 2, 1, 0])])     # a row per state
    def test_level_step_inverts_once_per_row_or_once_stacked(self, monkeypatch, n, n_rows,
                                                             index):
        # every layout makes one batched inverse of all of its rows and no solve
        rng = np.random.default_rng(5)
        m = BASIS.n_modes
        L = -np.eye(m) - 0.1 * rng.standard_normal((n_rows, m, m))
        Ms = 0.1 * rng.standard_normal((n_rows, 1, m, m))
        Ep, fhat = rng.standard_normal((n, m)), rng.standard_normal((n, m))
        q = rng.standard_normal((n, 1, m))
        node_rows = np.zeros(n, int) if index is None else np.array(index)
        # the same step with every node's row copied out: a stacked solve
        want = _level_step(LevelOperators(L[node_rows], Ms[node_rows], np.arange(n)),
                           Ep, q, fhat, 0.1, 0.5, 0)
        calls = []
        for name in ("solve", "inv"):
            monkeypatch.setattr(np.linalg, name, lambda a, *rest, _f=getattr(np.linalg, name),
                                _name=name: calls.append((_name, a.shape)) or _f(a, *rest))
        got = _level_step(LevelOperators(L, Ms, None if index is None else node_rows),
                          Ep, q, fhat, 0.1, 0.5, 0)
        assert calls == [("inv", (n_rows, m, m))]
        if index is None:  # one level-wide product is not the per-node products' arithmetic
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("scale, nan_source, message", [
        (1.0 - 1e-14, False, r"level 3, node 4 \(amplification 9\.9e\+13\)$"),
        (0.5, True, r"level 3, node 4 \(amplification nan\)$")],
        ids=["bound-proves-nothing", "non-finite"])
    def test_step_of_coefficient_rows_names_the_path(self, scale, nan_source, message):
        # 6 paths Q C plus a source row each, stepped as paths and as the k = 2
        # rows of C, which the step stacks with the source rows.  Paths 0-3
        # are 0 and path 4 is the first bad one: the inverse's bound proves
        # nothing and every path is measured, or path 4's source is nan.  Both
        # steps name path 4, not coefficient row 0 nor path 4's source row (row 6)
        rng = np.random.default_rng(9)
        n, k, m = 6, 2, BASIS.n_modes
        ops = LevelOperators(scale * np.eye(m)[None] / 0.1, np.zeros((1, 1, m, m)))
        Q = rng.standard_normal((n, k))
        C = rng.standard_normal((k, 2, m))
        f = rng.standard_normal((n, m))
        Q[:4], f[:4] = 0.0, 0.0
        if nan_source:
            f[4, 0] = np.nan
        values = np.einsum("nk,kjm->njm", Q, C)
        for step in (lambda: _level_step(ops, values[:, 0], values[:, 1:], f, 0.1, 1.0, 3),
                     lambda: _level_step(ops, C[:, 0], C[:, 1:], f, 0.1, 1.0, 3, paths=Q)):
            with pytest.raises(NumericError, match=message):
                step()


class TestChainSolves:
    def test_heat_chain_matches_scalar_recursion_exactly(self):
        # diagonal constant-coefficient operator: the tree scheme per mode IS
        # the scalar theta recursion, so agreement is to rounding
        n_steps, theta = 16, 0.5
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]))
        chain = build_chain(1, n_steps, sc.horizon)
        sol = solve_tree(sc, chain, BASIS, SchemeConfig(theta=theta))
        p0 = to_exponential(BASIS, sol.p0().coeffs)
        ref = scalar_theta_chain(-0.5, 0.5, lambda s: 0.0, sc.horizon, n_steps, theta)
        modes = BASIS.modes[:, 0]
        assert p0[modes == 1][0] == pytest.approx(ref, abs=1e-14)
        assert p0[modes == -1][0] == pytest.approx(ref, abs=1e-14)
        assert np.allclose(p0[np.abs(modes) != 1], 0.0, atol=1e-13)

    def test_crank_nicolson_converges_to_heat_flow(self):
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]))
        errs = []
        for n_steps in (8, 16, 32):
            chain = build_chain(1, n_steps, sc.horizon)
            sol = solve_tree(sc, chain, BASIS, SchemeConfig(theta=0.5))
            p0 = to_exponential(BASIS, sol.p0().coeffs)
            exact = np.exp(-0.25) * 0.5
            errs.append(abs(p0[BASIS.modes[:, 0] == 1][0] - exact))
        # second-order scheme: error drops ~4x per halving
        assert errs[0] / errs[1] > 3.3
        assert errs[1] / errs[2] > 3.3

    def test_source_chain_quadrature(self):
        # dp/dt = -F(t) with zero terminal on the lowest mode
        sc = make_scenario(a=0.5, phi=0.0, F=lambda t, X: np.cos(np.pi * t) + 0.0 * X[:, 0])
        n_steps = 64
        chain = build_chain(1, n_steps, sc.horizon)
        sol = solve_tree(sc, chain, BASIS, SchemeConfig(theta=0.5))
        idx = int(np.where(BASIS.modes[:, 0] == 0)[0][0])
        ref = scalar_theta_chain(0.0, 0.0, lambda s: np.cos(np.pi * s), sc.horizon,
                                 n_steps, 0.5)
        assert to_exponential(BASIS, sol.p0().coeffs)[idx] == pytest.approx(ref, abs=1e-13)

    def test_chain_rejects_adapted_scenario(self):
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) + hist.w[0])
        chain = build_chain(1, 4, sc.horizon)
        with pytest.raises(StructuralError, match="chain"):
            solve_tree(sc, chain, BASIS)


class TestTreeSolves:
    def stochastic_scenario(self):
        return make_scenario(
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
            T=0.5,
        )

    def test_matches_dense_reference(self):
        sc = self.stochastic_scenario()
        tree = build_tree(1, 3, 2, sc.horizon)
        fast = solve_tree(sc, tree, BASIS)
        slow = solve_dense(sc, tree, BASIS)
        diff = pair_difference(fast, slow)
        assert np.sqrt(mixed_norm_sq(diff, p_order=0, q_order=0)) < 1e-12

    def test_matches_dense_with_noise_coupling(self):
        sc = make_scenario(
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
            sigma=0.3, nu=0.1, kappa=0.2, T=0.5,
        )
        tree = build_tree(1, 3, 2, sc.horizon)
        fast = solve_tree(sc, tree, BASIS, SchemeConfig(theta=0.5))
        slow = solve_dense(sc, tree, BASIS, SchemeConfig(theta=0.5))
        diff = pair_difference(fast, slow)
        assert np.sqrt(mixed_norm_sq(diff, p_order=0, q_order=0)) < 1e-12

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_matches_dense_with_two_noises(self, theta):
        # each child block of the dense system sums both noise operators
        sc = markov_scenario(2)
        tree = build_tree(2, 2, 2, sc.horizon)
        fast = solve_tree(sc, tree, BASIS, SchemeConfig(theta=theta))
        slow = solve_dense(sc, tree, BASIS, SchemeConfig(theta=theta))
        for a, b in ((fast.p, slow.p), (fast.q, slow.q)):
            scale = max(np.abs(lv).max() for lv in b.levels)
            assert scale > 0.01
            assert max(np.abs(x - y).max() for x, y in zip(a.levels, b.levels)) < 1e-12 * scale

    def test_solution_linearity(self):
        tree = build_tree(1, 3, 2, 0.5)
        sc1 = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5)
        sc2 = make_scenario(F=1.0, T=0.5)
        sc_sum = make_scenario(
            phi=lambda t, X: 2.0 * np.cos(X[:, 0]), F=-3.0, T=0.5,
        )
        s1 = solve_tree(sc1, tree, BASIS)
        s2 = solve_tree(sc2, tree, BASIS)
        s3 = solve_tree(sc_sum, tree, BASIS)
        combo = 2.0 * s1.p0().coeffs - 3.0 * s2.p0().coeffs
        assert np.allclose(s3.p0().coeffs, combo, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        sc = make_scenario()
        tree = build_tree(2, 2, 2, sc.horizon)
        with pytest.raises(StructuralError):
            solve_tree(sc, tree, BASIS)
        with pytest.raises(StructuralError):
            solve_tree(sc, build_tree(1, 2, 2, sc.horizon * 2), BASIS)

    def test_noise_coupled_solve_is_exact_and_matches_dense(self):
        # sigma and nu couple q into the step; the explicit treatment of that
        # coupling satisfies the one-step identity to round-off
        sc = make_scenario(
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
            sigma=0.3, nu=0.1, kappa=0.2, T=0.5,
        )
        tree = build_tree(1, 3, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS, SchemeConfig(theta=1.0))
        assert max(np.max(r) for r in strong_residual(sol, sc, tree, BASIS)) <= 1e-10
        diff = pair_difference(sol, solve_dense(sc, tree, BASIS, SchemeConfig(theta=1.0)))
        assert np.sqrt(mixed_norm_sq(diff, p_order=0, q_order=0)) < 1e-9

    def test_storage_budget(self, monkeypatch):
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) + 0.0 * hist.w[0], T=0.5)
        tree = build_tree(1, 8, 2, sc.horizon)
        pq_bytes = 511 * BASIS.n_modes * (1 + 1) * 8  # p and q on every node
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", pq_bytes - 1)
        with pytest.raises(BudgetError) as exc:
            solve_tree(sc, tree, BASIS)
        assert (exc.value.count, exc.value.budget) == (pq_bytes, pq_bytes - 1)
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", pq_bytes)
        assert len(solve_tree(sc, tree, BASIS).p.levels) == 9

    def test_sup_expectation_ordering(self):
        sc = self.stochastic_scenario()
        tree = build_tree(1, 4, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        assert sol.p.e_sup_norm_sq(0) >= sol.p.sup_e_norm_sq() - 1e-14

    def test_time_norm_uses_left_rule(self):
        sc = make_scenario(F=1.0, T=1.0, phi=0.0)
        chain = build_chain(1, 4, 1.0)
        sol = solve_tree(sc, chain, BASIS)
        # p(t) = 1 - t on the zero mode; left rule over t in {0,.25,.5,.75}
        expected = sum((1 - t) ** 2 for t in (0.0, 0.25, 0.5, 0.75)) * 0.25
        assert sol.p.time_norm_sq(0) == pytest.approx(expected, rel=1e-12)


class TestLevelReductions:
    """Whole-level norms equal the per-node formulas of ``helpers`` exactly."""

    @pytest.fixture(scope="class")
    def fields(self):
        # every coefficient reads w1, so each node of the B=3 tree differs
        adapted = make_scenario(
            a=lambda t, X, hist: 0.5 + 0.05 * np.sin(X[:, 0] + hist.w[0]),
            b=lambda t, X, hist: 0.1 * np.cos(hist.w[0]) + 0.0 * X[:, 0],
            sigma=lambda t, X, hist: 0.3 + 0.05 * np.sin(hist.w[0]) + 0.0 * X[:, 0],
            nu=0.1, kappa=0.2, F=lambda t, X, hist: np.cos(X[:, 0] - hist.w[0]),
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]),
        )
        tree = build_tree(1, 4, 3, adapted.horizon)
        sol = solve_tree(adapted, tree, BASIS)
        two = make_scenario(
            d1=2, sigma=0.2, nu=0.1,
            phi=lambda t, X, hist: (np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0])
                                    + 0.3 * np.sin(2 * X[:, 0]) * hist.w[1]),
        )
        tree2 = build_tree(2, 3, 2, two.horizon)
        b3 = solve_tree(two, build_tree(2, 3, 3, two.horizon), BASIS)
        # a deterministic source broadcasts its one row per level to the nodes
        source = _source_field(make_scenario(F=lambda t, X: np.cos(X[:, 0]) * (1.0 - t)),
                               tree, BASIS)
        assert all(rows.strides[0] == 0 for rows in source.levels[1:])
        return {"adapted_p": sol.p, "adapted_q": sol.q,
                "dim_w2_q": solve_tree(two, tree2, BASIS).q,
                "b3_dim_w2_p": b3.p, "b3_dim_w2_q": b3.q, "broadcast": source}

    @pytest.mark.parametrize("order", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["adapted_p", "adapted_q", "dim_w2_q"])
    def test_matches_per_node_reference(self, fields, name, order):
        f = fields[name]
        for level in range(len(f.levels)):
            assert (f.level_expected_norm_sq(level, order)
                    == level_expected_norm_sq_reference(f, level, order))
        assert f.time_norm_sq(order) == time_norm_sq_reference(f, order) > 0
        assert f.e_sup_norm_sq(order) == e_sup_norm_sq_reference(f, order)
        assert f.sup_e_norm_sq(order) == sup_e_norm_sq_reference(f, order)

    # each norm method of a field, and its per-node reference, at one order;
    # "odd_levels" first keeps some levels, so the next reader stacks the
    # levels left between them
    NORMS = {
        "odd_levels": (lambda f, o: [f.level_expected_norm_sq(k, o)
                                     for k in range(1, len(f.levels), 2)],
                       lambda f, o: [level_expected_norm_sq_reference(f, k, o)
                                     for k in range(1, len(f.levels), 2)]),
        "e_sup": (lambda f, o: f.e_sup_norm_sq(o), e_sup_norm_sq_reference),
        "time": (lambda f, o: f.time_norm_sq(o), time_norm_sq_reference),
        "sup_e": (lambda f, o: f.sup_e_norm_sq(o), sup_e_norm_sq_reference),
        "expected_norms": (lambda f, o: f.expected_norms_sq(o),
                           lambda f, o: [level_expected_norm_sq_reference(f, k, o)
                                         for k in range(len(f.levels))]),
        "level": (lambda f, o: [f.level_expected_norm_sq(k, o) for k in range(len(f.levels))],
                  lambda f, o: [level_expected_norm_sq_reference(f, k, o)
                                for k in range(len(f.levels))]),
    }

    @pytest.mark.parametrize("name", ["adapted_q", "b3_dim_w2_p", "b3_dim_w2_q", "broadcast"])
    def test_kept_norms_match_the_reference_in_any_call_order(self, fields, name):
        src = fields[name]
        calls = [(order, method) for order in range(-1, 4) for method in self.NORMS]
        want = {(order, method): self.NORMS[method][1](src, order) for order, method in calls}
        for sequence in (calls, calls[::-1]):
            f = AdaptedField(src.tree, src.basis, src.levels)  # nothing kept yet
            for order, method in sequence:
                assert self.NORMS[method][0](f, order) == want[order, method], (order, method)
            kept = f._node_norms_sq(0)
            assert [len(sq) for sq in kept] == [len(rows) for rows in f.levels]
            assert not any(sq.flags.writeable for sq in kept)

    def test_a_difference_gets_its_own_norms(self):
        sc = make_scenario(sigma=0.2, nu=0.1,
                           phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]))
        tree = build_tree(1, 3, 2, sc.horizon)
        x = solve_tree(sc, tree, BASIS)
        y = solve_tree(sc.with_fields(F=make_scenario(F=0.3).F), tree, BASIS)
        for order in range(-1, 4):  # keep every norm of both solutions
            for f in (x.p, x.q, y.p, y.q):
                f.e_sup_norm_sq(order)
        diff = pair_difference(x, y)
        for order in range(-1, 4):
            for f, parent in ((diff.p, x.p), (diff.q, x.q)):
                assert f.time_norm_sq(order) == time_norm_sq_reference(f, order) > 0
                assert f.e_sup_norm_sq(order) == e_sup_norm_sq_reference(f, order)
                assert f.e_sup_norm_sq(order) != parent.e_sup_norm_sq(order)


class TestResiduals:
    def test_strong_residual_vanishes_on_solution(self):
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) * (1 + 0.2 * hist.w[0]), T=0.5)
        tree = build_tree(1, 3, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        res = strong_residual(sol, sc, tree, BASIS)
        assert max(np.max(r) for r in res) < 1e-10

    def test_strong_residual_detects_perturbation(self):
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5)
        tree = build_tree(1, 3, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        eps = 1e-3
        bump = BASIS.project(np.sin(BASIS.grid_points[:, 0]))
        sol.p.levels[1][:, :] += eps * bump[None, :]
        res = strong_residual(sol, sc, tree, BASIS)
        peak = max(np.max(r) for r in res)
        assert eps * 0.1 < peak < eps * 50

    def test_weak_residual_small_on_solution(self):
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5, form="divergence")
        tree = build_tree(1, 4, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        eta = SpatialField(BASIS, BASIS.project(np.cos(BASIS.grid_points[:, 0])))
        wr = weak_residual(sol, sc, tree, BASIS, eta)
        pscale = np.sqrt(sol.p.time_norm_sq(0))
        assert max(np.max(np.abs(r)) for r in wr) < 1e-8 * max(pscale, 1.0)

    def test_weak_residual_orthogonal_test_function(self):
        # test function supported on modes the solution never touches
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5)
        tree = build_tree(1, 3, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        eta = SpatialField(BASIS, BASIS.project(np.sin(3 * BASIS.grid_points[:, 0])))
        wr = weak_residual(sol, sc, tree, BASIS, eta)
        assert max(np.max(np.abs(r)) for r in wr) < 1e-12

    def test_weak_matches_strong_for_constant_coefficients(self):
        # with constant coefficients both forms coincide, so testing against
        # a single mode reads off one row of the strong defect
        sc = make_scenario(phi=lambda t, X: np.cos(X[:, 0]), T=0.5)
        tree = build_tree(1, 3, 2, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        eta = SpatialField(BASIS, BASIS.project(np.cos(BASIS.grid_points[:, 0])))
        wr = weak_residual(sol, sc, tree, BASIS, eta)
        assert max(np.max(np.abs(r)) for r in wr) < 1e-10


class TestInputChecks:
    """Every solver refuses a tree, an ensemble or a basis made for another
    scenario; the one check is ``solver._check_inputs``."""

    SOLVERS = {
        "solve_tree": ("tree", solve_tree),
        "solve_dense": ("tree", solve_dense),
        "solve_regression": ("paths", solve_regression),
        "freeze_and_iterate": ("tree", lambda sc, tree, basis: freeze_and_iterate(
            sc, np.zeros(sc.dim_x), tree, basis, max_iter=1)),
    }

    def run(self, solver, dim_w=0, horizon=1.0, dim_x=0, halfwidth=None):
        """``solver`` on tiny.scn, its filtration and basis made with the
        scenario's dims plus ``dim_w``/``dim_x``, its horizon times ``horizon``
        and the given ``halfwidth`` (default: the scenario's)."""
        sc = load_scenario(TINY)[0]
        kind, call = self.SOLVERS[solver]
        dw, T = sc.dim_w + dim_w, sc.horizon * horizon
        filtration = (build_tree(dw, 2, 2, T) if kind == "tree"
                      else sample_paths(dw, 2, 16, T, seed=0))
        basis = SpectralBasis(sc.dim_x + dim_x, 2,
                              sc.domain_halfwidth if halfwidth is None else halfwidth)
        return call(sc, filtration, basis)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("mismatch, message", [
        ({"dim_w": 1}, "disagree on dim_w"),
        ({"horizon": 2.0}, "disagree on the horizon"),
        ({"dim_x": 1}, "disagree on dim_x"),
        ({"halfwidth": 1.0}, "disagree on the domain halfwidth"),
    ], ids=["dim_w", "horizon", "dim_x", "halfwidth"])
    def test_mismatch_is_refused(self, solver, mismatch, message):
        with pytest.raises(StructuralError, match=message):
            self.run(solver, **mismatch)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_lengths_agree_within_round_off(self, solver):
        # the file's L = 3.14159265358979 is not np.pi, but names the same torus
        assert self.run(solver, halfwidth=np.pi) is not None


class TestRegression:
    @pytest.mark.parametrize("dim_w, size", [(1, 1), (1, 4), (2, 6), (2, 10), (3, 20)])
    def test_monomial_features_are_the_running_products(self, dim_w, size):
        # each monomial is its parent's times one column: the same products,
        # in the same order, as multiplying its columns from 1
        from itertools import combinations_with_replacement, count, islice
        states = np.random.default_rng(9).normal(size=(50, dim_w))
        combos = islice((c for deg in count()
                         for c in combinations_with_replacement(range(dim_w), deg)), size)
        cols = []
        for combo in combos:
            col = np.ones(len(states))
            for j in combo:
                col = col * states[:, j]
            cols.append(col)
        got = _monomial_features(states, size)
        assert got.shape == (50, size) and got.tobytes() == np.stack(cols, axis=1).tobytes()

    def test_deterministic_source_is_exact(self):
        # F = 1, phi = 0: p(t) = T - t along every path, so the regression
        # recursion reproduces it exactly regardless of sample noise
        sc = make_scenario(F=1.0, phi=0.0, T=1.0)
        ens = sample_paths(1, 8, 64, 1.0, seed=5)
        reg = solve_regression(sc, ens, BASIS)
        idx = int(np.where(BASIS.modes[:, 0] == 0)[0][0])
        assert reg.p0().coeffs[idx] == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_tree_within_sampling_error(self):
        sc = make_scenario(
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]), T=0.5,
        )
        tree = build_tree(1, 4, 3, sc.horizon)
        tree_sol = solve_tree(sc, tree, BASIS)
        ens = sample_paths(1, 4, 4000, sc.horizon, seed=17)
        reg = solve_regression(sc, ens, BASIS)
        a = reg.p0().coeffs
        b = tree_sol.p0().coeffs
        denom = np.linalg.norm(b)
        assert np.linalg.norm(a - b) / denom < 0.02

    def test_martingale_integrand_recovery(self):
        # terminal 0.2 W_T has the constant integrand q = 0.2 on the zero
        # mode; regression recovers it to sampling accuracy at every step
        sc = make_scenario(phi=lambda t, X, hist: 0.2 * hist.w[0] + 0.0 * X[:, 0], T=0.5)
        ens = sample_paths(1, 4, 2000, sc.horizon, seed=23)
        reg = solve_regression(sc, ens, BASIS)
        idx = int(np.where(BASIS.modes[:, 0] == 0)[0][0])
        for step in (0, 2):
            q_mean = reg.q_means[step][0]
            assert abs(q_mean[idx] - 0.2) < 0.02
            assert np.abs(np.delete(q_mean, idx)).max() < 1e-12

    @pytest.mark.parametrize("paths, step", [("fewer-than-features", 3), ("two-states", 1)])
    def test_rank_deficiency_reported(self, paths, step):
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) + 0.0 * hist.w[0], T=0.5)
        if paths == "fewer-than-features":  # 3 paths, 6 monomials
            ens, size = sample_paths(1, 4, 3, sc.horizon, seed=1), 6
        else:  # 12 paths whose w at step 1 is +-0.5: 1, w, w^2, w^3 span two columns
            inc = np.tile([[[0.5], [0.1]], [[-0.5], [0.2]]], (6, 1, 1))
            ens, size = PathEnsemble(1, 2, 12, 0, sc.horizon, sc.horizon / 2, inc), 4
        with pytest.raises(NumericError,
                           match=f"rank-deficient regression design at time step {step}$"):
            solve_regression(sc, ens, BASIS, regression_basis_size=size)

    def test_path_blocks_do_not_change_adapted_operator_solves(self, monkeypatch):
        # per-path operators are solved a block of paths at a time; the block
        # size (here 7 paths, the last block shorter) must not move any bit
        sc = make_scenario(
            c=lambda t, X, hist: 0.1 + 0.05 * np.sin(hist.w[0]) + 0.0 * X[:, 0],
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]), T=0.5,
        )
        ens = sample_paths(1, 4, 50, sc.horizon, seed=3)
        whole = solve_regression(sc, ens, BASIS)
        monkeypatch.setattr("bspde.solver._BLOCK_ENTRIES", 7 * BASIS.n_modes ** 2)
        blocked = solve_regression(sc, ens, BASIS)
        assert whole.p0().coeffs.tobytes() == blocked.p0().coeffs.tobytes()
        assert whole.q_means.tobytes() == blocked.q_means.tobytes()

    def test_seed_reproducibility(self):
        sc = make_scenario(
            phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]), T=0.5,
        )
        r1 = solve_regression(sc, sample_paths(1, 4, 500, 0.5, seed=9), BASIS)
        r2 = solve_regression(sc, sample_paths(1, 4, 500, 0.5, seed=9), BASIS)
        assert np.array_equal(r1.p0().coeffs, r2.p0().coeffs)

    @staticmethod
    def deterministic_coefficients(dim_w):
        """x-dependent deterministic coefficients and F, and an adapted phi."""
        return make_scenario(
            d1=dim_w, a=lambda t, X: 0.6 + 0.1 * np.sin(X[:, 0]), b=0.1, c=0.1, sigma=0.2,
            nu=0.05, F=lambda t, X: np.cos(X[:, 0]),
            phi=lambda t, X, hist: np.sin(X[:, 0]) * (1.0 + 0.3 * hist.w.sum())
            + 0.2 * hist.w[-1] ** 2)

    @pytest.mark.parametrize("dim_w", [1, 2])
    @pytest.mark.parametrize("coefficients, theta", [
        pytest.param("deterministic", 1.0, id="deterministic"),
        pytest.param("deterministic", 0.5, id="deterministic-theta-half"),
        pytest.param("markov-source", 1.0, id="markov-source"),
        pytest.param("markov-source", 0.5, id="markov-source-theta-half"),
        pytest.param("adapted", 1.0, id="adapted")])
    def test_stacked_fit_matches_per_target_reference(self, dim_w, coefficients, theta):
        # deterministic coefficients step the fitted coefficients with one
        # source row, or with a row per path for markov_scenario's F (and
        # phi); adapted coefficients take the per-path operator blocks.  The
        # reference fits each target apart and steps every path
        det = self.deterministic_coefficients(dim_w)
        sc = {"deterministic": det, "adapted": markov_scenario(dim_w),
              "markov-source": markov_scenario(dim_w).with_fields(
                  **det.coefficient_fields())}[coefficients]
        assert sc.coefficients_deterministic == (coefficients != "adapted")
        assert sc.F.is_deterministic == (coefficients == "deterministic")
        ens = sample_paths(dim_w, 5, 300, sc.horizon, seed=31)
        scheme = SchemeConfig(theta=theta)
        reg = solve_regression(sc, ens, BASIS, scheme=scheme)
        p0, q_means = regression_reference(sc, ens, BASIS, scheme=scheme)
        assert reg.q_means.shape == (5, dim_w, BASIS.n_modes)
        for got, want in ((reg.p0().coeffs, p0), (reg.q_means, q_means)):
            assert np.abs(want).max() > 1e-3
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_no_step_sees_the_paths_unless_each_has_its_operators(self, monkeypatch):
        # deterministic coefficients and F: every step takes the k = 4 fitted
        # coefficient rows, which it stacks with one source row, never the
        # 4,000 paths (at t=0 the fit is one row, the mean); a Markov c gives
        # each path its own operators, and the paths are stepped one block at
        # a time
        rows = []
        step = bspde.solver._level_step
        monkeypatch.setattr(bspde.solver, "_level_step", lambda ops, Ep, *args, **kw:
                            rows.append(len(Ep)) or step(ops, Ep, *args, **kw))
        sc = self.deterministic_coefficients(1)
        ens = sample_paths(1, 2, 4000, sc.horizon, seed=41)
        solve_regression(sc, ens, BASIS, regression_basis_size=4)
        assert rows == [4, 1]
        rows.clear()
        c = make_scenario(c=lambda t, X, hist: 0.1 + 0.05 * np.sin(hist.w[0]) + 0 * X[:, 0]).c
        solve_regression(sc.with_fields(c=c), ens, BASIS, regression_basis_size=4)
        size = bspde.solver._BLOCK_ENTRIES // BASIS.n_modes ** 2
        assert 0 < 4000 - size < size
        assert rows == [size, 4000 - size] * 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_deterministic_regression_reproduces_the_chain_solve(self, seed):
        # the rough coefficient of the benchmark's chain_paths: the step's
        # rows run 256 steps over 4,000 paths.  A constant carried through a
        # Gram matrix Q^T Q_prev, whose constant entry sums 4,000 same-sign
        # terms, drifts about 1e-13 a step, 2e-11 in all; carried exactly it
        # stays within 1e-12 of the chain
        sc = load_scenario_text(CHAIN_PATHS_TEXT)[0]
        basis = SpectralBasis(1, 16, sc.domain_halfwidth)
        want = solve_tree(sc, build_chain(1, 256, sc.horizon), basis).p0().coeffs
        reg = solve_regression(sc, sample_paths(1, 256, 4000, sc.horizon, seed=seed), basis)
        assert np.abs(reg.p0().coeffs - want).max() <= 1e-12 * np.abs(want).max()

    def test_shared_row_memory_stays_below_one_value_per_path_and_mode(self):
        # deterministic coefficients and data: p at the paths is kept as the
        # fitted rows plus one source row, so no step forms the paths' values
        import tracemalloc
        sc = load_scenario_text(CHAIN_TEXT)[0]
        basis = SpectralBasis(1, 32, sc.domain_halfwidth)
        ens = sample_paths(1, 16, 4000, sc.horizon, seed=3)
        tracemalloc.start()
        try:
            solve_regression(sc, ens, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ens.n_paths * basis.n_modes * 8, peak

    def test_memory_does_not_grow_with_the_step_count(self):
        # only the running level is kept: the peak must not scale with N
        import tracemalloc
        sc = make_scenario(phi=lambda t, X, hist: np.cos(X[:, 0]) * (1.0 + 0.2 * hist.w[0]))
        peaks = {}
        for n_steps in (8, 64):
            ens = sample_paths(1, n_steps, 2000, sc.horizon, seed=2)
            tracemalloc.start()
            try:
                solve_regression(sc, ens, BASIS)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] < 1.5 * peaks[8], peaks

    def test_rows_of_maps_that_read_t_are_kept_for_one_level(self):
        # a and F read t: their rows are kept for the level being stepped,
        # not for every level the solve has read
        import tracemalloc
        sc = make_scenario(a=lambda t, X: 0.5 + 0.1 * np.sin(X[:, 0]),
                           F=lambda t, X: np.cos(X[:, 0]))
        assert "t" in sc.a.reads and sc.coefficients_deterministic
        basis = SpectralBasis(1, 32, sc.domain_halfwidth)
        peaks = {}
        for n_steps in (16, 128):
            ens = sample_paths(1, n_steps, 1000, sc.horizon, seed=4)
            tracemalloc.start()
            try:
                solve_regression(sc, ens, basis)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[128] < 1.5 * peaks[16], peaks


def declared_path_dependent(scenario):
    """The same scenario with every Markov field evaluated node by node: its
    read is given each node's ``w`` as a one-row W, one node at a time."""
    def per_node(f):
        return replace(f, reads=f.reads - {"w"} | {"history"}, fn=lambda t, X, hists: (
            np.concatenate([f.fn(t, X, h.w[None]) for h in hists])))
    return scenario.with_fields(**{
        name: per_node(getattr(scenario, name))
        for name in ("a", "b", "c", "sigma", "nu", "F", "phi")
        if getattr(scenario, name).markov})


class TestMarkovFields:
    """Markov fields run once per distinct Wiener state and change no bit."""

    TREES = {1: (1, 8, 3), 2: (2, 3, 3)}  # dim_w, steps, branching

    @pytest.mark.parametrize("dim_w", [1, 2])
    def test_level_map_is_bit_equal_to_per_node_evaluation(self, dim_w):
        scn = markov_scenario(dim_w)
        per = declared_path_dependent(scn)
        assert scn.a.markov and not per.a.markov
        tree = build_tree(*self.TREES[dim_w], scn.horizon)
        fast, slow = LevelFields(scn, tree, BASIS), LevelFields(per, tree, BASIS)
        X = BASIS.grid_points
        for level in range(tree.n_steps + 1):
            for name in ("F", "phi"):
                got, want = (
                    fields.level_map(level, [getattr(s, name)],
                                     lambda t, states, f=getattr(s, name):
                                     f.evaluate_states(t, X, states),
                                     ("grid", getattr(s, name)))
                    for fields, s in ((fast, scn), (slow, per)))
                assert got.shape == want.shape
                assert len(got) == tree.levels[level].n_nodes
                assert got.tobytes() == want.tobytes()
            if level < tree.n_steps:
                for got, want in zip(node_operators(fast.operators(level)),
                                     node_operators(slow.operators(level))):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim_w", [1, 2])
    def test_solves_are_bit_equal_to_per_node_evaluation(self, dim_w):
        scn = markov_scenario(dim_w)
        per = declared_path_dependent(scn)
        tree = build_tree(dim_w, 3, 3, scn.horizon)
        fast, slow = solve_tree(scn, tree, BASIS), solve_tree(per, tree, BASIS)
        for a, b in zip(fast.p.levels + fast.q.levels, slow.p.levels + slow.q.levels):
            assert a.tobytes() == b.tobytes()
        ens = sample_paths(dim_w, 3, 40, scn.horizon, seed=4)
        fast, slow = solve_regression(scn, ens, BASIS), solve_regression(per, ens, BASIS)
        assert fast.p0().coeffs.tobytes() == slow.p0().coeffs.tobytes()
        assert fast.q_means.tobytes() == slow.q_means.tobytes()

    def test_parsed_field_is_evaluated_once_per_state(self):
        scn = markov_scenario(1)
        F, f_calls = counting(scn.F)
        phi, phi_calls = counting(scn.phi)
        tree = build_tree(1, 8, 3, scn.horizon)
        solve_tree(scn.with_fields(F=F, phi=phi), tree, BASIS)
        states = [len({tree.history(level, i).w.tobytes()
                       for i in range(tree.levels[level].n_nodes)})
                  for level in range(tree.n_steps + 1)]
        assert tree.n_nodes == 9841 and sum(states) == 107
        assert len(f_calls) == sum(states[:-1]) and len(phi_calls) == states[-1]
        for level in range(tree.n_steps):
            assert f_calls.count(tree.time_of(level)) == states[level]

    @staticmethod
    def unbatched(scenario):
        """The same scenario with every Markov field a library Markov
        callable, read one state after the other (``adapted``), each state's
        ``w`` given to the parsed read as a one-row W."""
        def library(f):
            return CoefficientField.adapted(lambda t, X, hist: f.fn(t, X, hist.w[None])[0],
                                            f.shape, markov=True, t_free=f.t_free)
        return scenario.with_fields(**{
            name: library(getattr(scenario, name))
            for name in ("a", "b", "c", "sigma", "nu", "F", "phi")
            if getattr(scenario, name).markov})

    @pytest.mark.parametrize("dim_w", [1, 2])
    def test_markov_callables_without_a_batched_read_solve_bit_equal(self, dim_w):
        scn = markov_scenario(dim_w)
        lib, per = self.unbatched(scn), declared_path_dependent(scn)
        assert lib.a.markov and lib.a.reads == scn.a.reads
        tree = build_tree(dim_w, 3, 3, scn.horizon)
        want = solve_tree(scn, tree, BASIS)
        for other in (lib, per):
            got = solve_tree(other, tree, BASIS)
            for a, b in zip(got.p.levels + got.q.levels, want.p.levels + want.q.levels):
                assert a.tobytes() == b.tobytes()
        ens = sample_paths(dim_w, 3, 40, scn.horizon, seed=4)
        want = solve_regression(scn, ens, BASIS)
        for other in (lib, per):
            got = solve_regression(other, ens, BASIS)
            assert got.p0().coeffs.tobytes() == want.p0().coeffs.tobytes()
            assert got.q_means.tobytes() == want.q_means.tobytes()

    def test_library_markov_callable_solves_as_its_per_node_declaration(self):
        # a callable that reads only hist.w, declared Markov, is read once per
        # state on a stand-in history that carries w alone
        def c(t, X, hist):
            return 0.11 + 0.03 * np.cos(hist.w[0] + 6.2) + 0.0 * X[:, 0]

        def phi(t, X, hist):
            return 1.4 + 0.56 * np.sin(X[:, 0] + 0.24) + 0.38 * np.sin(hist.w[0] + 3.0)
        scn = markov_scenario(1).with_fields(
            c=CoefficientField.adapted(c, (), markov=True, t_free=True),
            phi=CoefficientField.adapted(phi, (), markov=True, t_free=True))
        tree = build_tree(1, 4, 3, scn.horizon)
        fast, slow = solve_tree(scn, tree, BASIS), solve_tree(declared_path_dependent(scn),
                                                             tree, BASIS)
        for a, b in zip(fast.p.levels + fast.q.levels, slow.p.levels + slow.q.levels):
            assert a.tobytes() == b.tobytes()

    def test_markov_solves_build_no_history(self, monkeypatch):
        # a Markov level is its distinct Wiener values; only fields that read
        # the whole history get per-node histories
        built = []
        monkeypatch.setattr(bspde.solver, "PathHistory",
                            lambda *args, _cls=bspde.solver.PathHistory:
                            built.append(args) or _cls(*args))
        scn = markov_scenario(1)
        tree = build_tree(1, 3, 3, scn.horizon)
        solve_tree(scn, tree, BASIS)
        freeze_and_iterate(scn, np.zeros(1), tree, BASIS, max_iter=2)
        solve_regression(scn, sample_paths(1, 3, 20, scn.horizon, seed=2), BASIS)
        assert built == []
        solve_tree(declared_path_dependent(scn), tree, BASIS)
        assert len(built) == tree.n_nodes

    def test_path_dependent_callable_is_evaluated_per_node(self):
        # the last increment is not a function of w: nodes sharing w differ
        def last_step(t, X, hist):
            last = hist.increments[-1, 0] if hist.n_steps else 0.0
            return np.cos(X[:, 0]) * (1.0 + 0.5 * last)
        F, calls = counting(CoefficientField.adapted(last_step, ()))
        assert not F.markov
        sc = make_scenario(F=F, phi=lambda t, X, hist: np.sin(X[:, 0]) * hist.w[0],
                           sigma=0.2, kappa=0.2)
        tree = build_tree(1, 3, 3, sc.horizon)
        sol = solve_tree(sc, tree, BASIS)
        assert len(calls) == sum(tree.levels[k].n_nodes for k in range(tree.n_steps))
        level2 = [last_step(tree.time_of(2), BASIS.grid_points, tree.history(2, i))
                  for i in range(tree.levels[2].n_nodes)]
        w = wiener_values(tree, 2)[:, 0]
        same_w = [(i, j) for i in range(len(w)) for j in range(i)
                  if w[i] == w[j] and not np.array_equal(level2[i], level2[j])]
        assert same_w  # a per-state evaluation would be wrong here
        diff = pair_difference(sol, solve_dense(sc, tree, BASIS))
        assert np.sqrt(mixed_norm_sq(diff, p_order=0, q_order=0)) < 1e-12

    @pytest.mark.parametrize("dim_w, steps, branching", [(1, 8, 3), (2, 3, 3), (1, 3, 5)])
    def test_state_keys_equal_history_w_byte_for_byte(self, dim_w, steps, branching):
        tree = build_tree(dim_w, steps, branching, 0.5)
        fields = LevelFields(markov_scenario(dim_w), tree, BASIS)
        for level in range(steps + 1):
            W, inverse = fields.groups(level, {"w"})
            assert len(inverse) == tree.levels[level].n_nodes
            assert len({w.tobytes() for w in W}) == len(W)  # distinct states
            for i in range(len(inverse)):
                ref = tree.history(level, i)
                assert W[inverse[i]].tobytes() == ref.w.tobytes()

    @pytest.mark.parametrize("dim_w, n_steps, branching", [(1, 4, 3), (2, 3, 2)])
    def test_node_groups_are_bit_equal_to_history(self, dim_w, n_steps, branching):
        # a field that is not Markov sees every node's own history
        scenario = markov_scenario(dim_w)
        tree = build_tree(dim_w, n_steps, branching, scenario.horizon)
        fields = LevelFields(scenario, tree, BASIS)
        for level in range(n_steps + 1):
            assert fields.groups(level, {"t"}) == ([None], None)  # reads no history
            hists, inverse = fields.groups(level, {"history"})
            assert np.array_equal(inverse, np.arange(tree.levels[level].n_nodes))
            assert len(hists) == tree.levels[level].n_nodes
            for node, h in enumerate(hists):
                ref = tree.history(level, node)
                assert h.increments.shape == ref.increments.shape
                assert h.increments.tobytes() == ref.increments.tobytes()
                assert h.w.tobytes() == ref.w.tobytes()
                assert (h.t, h.dt) == (ref.t, ref.dt)

    def test_ensemble_state_keys_equal_history_w_byte_for_byte(self):
        ens = sample_paths(1, 12, 30, 0.5, seed=8)
        fields = LevelFields(markov_scenario(1), ens, BASIS)
        for step in range(ens.n_steps + 1):
            W, inverse = fields.groups(step, {"w"})
            for j in range(ens.n_paths):
                assert W[inverse[j]].tobytes() == ensemble_history(ens, j, step).w.tobytes()

    @staticmethod
    def grouped_cases():
        """(scenario, tree shape, theta, basis) of Markov solves whose levels
        hold fewer states than nodes."""
        adapted = load_scenario_text(ADAPTED_TREE_TEXT)[0]
        for theta in (1.0, 0.5):
            yield pytest.param(adapted, (1, 4, 3), theta, BASIS, id=f"adapted_tree-{theta}")
        yield pytest.param(markov_scenario(2), (2, 3, 3), 0.5, BASIS, id="dim_w2")
        yield pytest.param(load_scenario_text(DIVERGENCE_MARKOV_TEXT)[0], (1, 3, 3), 0.5,
                           SpectralBasis(2, 2, np.pi), id="divergence-2d")

    @staticmethod
    def assert_pairs_bit_equal(fast, slow):
        assert len(fast.p.levels) == len(slow.p.levels)
        for a, b in zip(fast.p.levels + fast.q.levels, slow.p.levels + slow.q.levels):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scn, shape, theta, basis", grouped_cases())
    def test_grouped_solves_and_residuals_are_bit_equal_to_per_node(self, scn, shape,
                                                                    theta, basis):
        per, tree = declared_path_dependent(scn), build_tree(*shape, scn.horizon)
        scheme = SchemeConfig(theta=theta)
        last = tree.n_steps - 1
        ops = LevelFields(scn, tree, basis).operators(last)
        assert ops.index is not None and len(ops.L) < tree.levels[last].n_nodes
        assert np.array_equal(LevelFields(per, tree, basis).operators(last).index,
                              np.arange(tree.levels[last].n_nodes))
        fast, slow = solve_tree(scn, tree, basis, scheme), solve_tree(per, tree, basis, scheme)
        self.assert_pairs_bit_equal(fast, slow)
        eta = SpatialField(basis, basis.project(np.cos(basis.grid_points[:, 0])))
        for audit in (lambda s, sol: strong_residual(sol, s, tree, basis, scheme),
                      lambda s, sol: weak_residual(sol, s, tree, basis, eta, scheme),
                      lambda s, sol: [ito_identity_check(sol, s, tree, basis)]):
            got, want = audit(scn, fast), audit(per, fast)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("scn, shape, theta, basis", grouped_cases())
    def test_grouped_higher_regularity_and_picard_are_bit_equal(self, scn, shape, theta,
                                                                basis):
        per, tree = declared_path_dependent(scn), build_tree(*shape, scn.horizon)
        scheme = SchemeConfig(theta=theta)
        alpha = MultiIndex((1,) * scn.dim_x)
        (fast, fast_defect), (slow, slow_defect) = (
            higher_regularity_solve(s, tree, basis, alpha, scheme) for s in (scn, per))
        assert fast_defect == slow_defect
        self.assert_pairs_bit_equal(fast, slow)
        (fast, fast_report), (slow, slow_report) = (
            freeze_and_iterate(s, np.zeros(scn.dim_x), tree, basis, max_iter=3,
                               scheme=scheme) for s in (scn, per))
        assert fast_report == slow_report and fast_report.iterations == 3
        self.assert_pairs_bit_equal(fast, slow)

    def test_markov_solve_builds_no_per_node_operator_stack(self):
        import tracemalloc
        scn = load_scenario_text(DIVERGENCE_MARKOV_TEXT)[0]
        assert scn.c.markov and not scn.coefficients_deterministic
        tree, basis = build_tree(1, 6, 3, scn.horizon), SpectralBasis(2, 6, np.pi)
        widest = max(tree.levels[k].n_nodes for k in range(tree.n_steps))
        stack = widest * basis.n_modes ** 2 * 8  # one L per node: about 55 MB
        assert (widest, basis.n_modes) == (243, 169)
        tracemalloc.start()
        try:
            solve_tree(scn, tree, basis, SchemeConfig(theta=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack, (peak, stack)

    def test_level_operators_are_refused_before_assembly(self, assemblies, monkeypatch):
        # the bound counts a level's operator rows: 27 nodes of the path-dependent
        # declaration at the first level solved, 7 Wiener states of its Markov twin
        scn = load_scenario_text(DIVERGENCE_MARKOV_TEXT)[0]
        tree, basis = build_tree(1, 4, 3, scn.horizon), SpectralBasis(2, 2, np.pi)
        row = (3 + 1) * basis.n_modes ** 2 * 8
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", 10 * row)
        with pytest.raises(BudgetError) as exc:
            solve_tree(declared_path_dependent(scn), tree, basis)
        assert exc.value.count == 27 * row and assemblies == []
        solve_tree(scn, tree, basis)

    def test_states_are_told_apart_by_bytes(self):
        w = np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, np.nextafter(1.0, 2.0)]])
        first, inverse = _distinct_rows(w)
        assert len(first) == 3
        assert list(inverse) == [inverse[0], inverse[1], inverse[0], inverse[3]]
        assert len({inverse[0], inverse[1], inverse[3]}) == 3
        assert all(w[first[g]].tobytes() == w[i].tobytes() for i, g in enumerate(inverse))

    @pytest.mark.parametrize("dim_w", [1, 2])
    def test_one_column_sorts_as_the_records_do(self, dim_w):
        # one column is sorted as numbers, more as records: the same groups, in the same order
        rng = np.random.default_rng(3)
        w = np.round(rng.normal(size=(200, dim_w)), 1)
        w[::7], w[::11], w[5] = -0.0, 0.0, np.nextafter(0.0, 1.0)
        _, first, inverse = np.unique(w.view(np.uint64), axis=0, return_index=True,
                                      return_inverse=True)
        got = _distinct_rows(w)
        assert [a.tobytes() for a in got] == [first.tobytes(), inverse.reshape(-1).tobytes()]
        assert len({w[i].tobytes() for i in got[0]}) == len(got[0]) < len(w)


@pytest.fixture
def assemblies(monkeypatch):
    """Names of the operator assemblies the solver makes, in call order: a
    stacked assembly of k states logs its name k times, once per state."""
    calls = []
    for name in ("assemble_L", "assemble_M"):
        def wrap(*args, _assemble=getattr(bspde.solver, name), _name=name):
            out = _assemble(*args)
            calls.extend([_name] * len(out))
            return out
        monkeypatch.setattr(bspde.solver, name, wrap)
    return calls


CHAIN_TEXT = """
[problem]
d = 1
d1 = 1
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
[coefficients]
a = 0.6 + 0.1*abs(sin(x1))
b = [0.2*cos(x1)]
c = 0.1
[data]
F = 0.5*cos(x1)
phi = sin(x1) + 1.5
"""


CHAIN_PATHS_TEXT = """
[problem]
d = 1
d1 = 1
T = 0.25
L = 1.0
K = 2.0
kappa = 0.3
[coefficients]
a = 0.6 + 0.15*abs(sin(3.14159265358979*(x1 - 0.2)))
b = [0.1*cos(3.14159265358979*x1 + 0.7)]
c = 0.05
[data]
F = 0.3*(1 + 0.4*cos(3.14159265358979*x1 + 1.1))
phi = 1.2 + cos(3.14159265358979*(x1 - 0.1))
"""


class TestTimeFreeFields:
    """Reads of t-free fields keep their rows across levels and change no bit."""

    @staticmethod
    def solve_counted(assemblies, solve, scenario, filtration):
        """Both solves, and the (L, M) assembly counts of the t-free one."""
        fast = solve(scenario, filtration, BASIS)
        counts = (assemblies.count("assemble_L"), assemblies.count("assemble_M"))
        slow = solve(declared_time_dependent(scenario), filtration, BASIS)
        return fast, slow, counts

    @staticmethod
    def assert_bit_equal(fast, slow):
        for a, b in zip(fast.p.levels + fast.q.levels, slow.p.levels + slow.q.levels):
            assert a.tobytes() == b.tobytes()

    def test_time_free_chain_assembles_once_per_solve(self, assemblies, monkeypatch):
        # the step inverse is kept too, and made from the kept L row
        inverses = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a, _inv=np.linalg.inv: inverses.append(a.shape) or _inv(a))
        scn = load_scenario_text(CHAIN_TEXT)[0]
        assert all(getattr(scn, n).t_free for n in ("a", "b", "c", "sigma", "nu", "F", "phi"))
        chain = build_chain(1, 256, scn.horizon)
        fast, slow, counts = self.solve_counted(assemblies, solve_tree, scn, chain)
        assert counts == (1, 1)
        assert len(assemblies) == 2 + 2 * 256  # the per-level path: every level
        assert inverses == [(1,) + (BASIS.n_modes,) * 2] * (1 + 256)  # once, then every level
        self.assert_bit_equal(fast, slow)
        # the regression's path blocks share the provider's rows
        assemblies.clear()
        inverses.clear()
        ens = sample_paths(1, 16, 50, scn.horizon, seed=5)
        fast, slow, counts = self.solve_counted(assemblies, solve_regression, scn, ens)
        assert counts == (1, 1) and len(assemblies) == 2 + 2 * 16
        assert len(inverses) == 1 + 16
        assert fast.p0().coeffs.tobytes() == slow.p0().coeffs.tobytes()
        assert fast.q_means.tobytes() == slow.q_means.tobytes()

    def test_path_blocks_share_the_rows(self, assemblies, monkeypatch):
        # every path starts at w = 0: one assembly for all 8 blocks of step 0
        scn = markov_scenario(1)
        ens = sample_paths(1, 4, 50, scn.horizon, seed=6)
        monkeypatch.setattr("bspde.solver._BLOCK_ENTRIES", 7 * BASIS.n_modes ** 2)
        fast, slow, counts = self.solve_counted(assemblies, solve_regression, scn, ens)
        w = np.cumsum(ens.increments, axis=1)
        states = {w[j, s - 1].tobytes() if s else b"" for j in range(50) for s in range(4)}
        assert counts == (len(states), len(states)) == (1 + 3 * 50, 1 + 3 * 50)
        # rows of t-dependent maps are not kept, but step 0 is one block of
        # every path: one assembly at step 0, then one per path and step
        assert len(assemblies) - sum(counts) == 2 * (1 + 3 * 50)
        assert fast.p0().coeffs.tobytes() == slow.p0().coeffs.tobytes()
        assert fast.q_means.tobytes() == slow.q_means.tobytes()

    def test_time_free_markov_tree_assembles_once_per_state(self, assemblies):
        scn = markov_scenario(1)
        tree = build_tree(1, 8, 3, scn.horizon)
        fast, slow, counts = self.solve_counted(assemblies, solve_tree, scn, tree)
        per_level = [{tree.history(level, i).w.tobytes()
                      for i in range(tree.levels[level].n_nodes)}
                     for level in range(tree.n_steps)]
        states = set().union(*per_level)
        assert counts == (len(states), len(states))
        assert len(assemblies) - sum(counts) == 2 * sum(map(len, per_level))
        assert len(states) < sum(map(len, per_level))
        self.assert_bit_equal(fast, slow)

    def test_two_dimensional_markov_rows_fit_the_byte_bound(self, assemblies):
        # a 169-mode L or M row is 228 KB, so the rows of all 23 Wiener states
        # of a B=3, N=8 tree (about 10.5 MB) stay under _CACHE_BYTES: each
        # state's L and M are assembled once for the whole solve
        scn = load_scenario_text(DIVERGENCE_MARKOV_TEXT)[0]
        tree, basis = build_tree(1, 8, 3, scn.horizon), SpectralBasis(2, 6, np.pi)
        solve_tree(scn, tree, basis)
        states = {w.tobytes() for level in range(tree.n_steps)
                  for w in wiener_values(tree, level)}
        assert len(states) == 23
        assert assemblies.count("assemble_L") == assemblies.count("assemble_M") == 23

    @pytest.mark.parametrize("a", ["parsed", "library"])
    def test_fields_that_may_read_t_are_assembled_every_level(self, assemblies, a):
        scn = load_scenario_text(CHAIN_TEXT.replace(
            "a = 0.6 + 0.1*abs(sin(x1))", "a = 0.6 + 0.1*t*sin(x1)"))[0]
        if a == "library":
            scn = scn.with_fields(a=CoefficientField.of_tx(
                lambda t, X: (0.6 + 0.1 * np.sin(X[:, 0]))[:, None, None], (1, 1)))
        assert not scn.a.t_free and scn.c.t_free
        chain = build_chain(1, 16, scn.horizon)
        fast, slow, counts = self.solve_counted(assemblies, solve_tree, scn, chain)
        assert counts == (16, 16)
        self.assert_bit_equal(fast, slow)

    def test_path_dependent_field_is_assembled_per_node(self, assemblies):
        # t-free but not Markov: the last increment is not a function of w
        def last_step(t, X, hist):
            last = hist.increments[-1, 0] if hist.n_steps else 0.0
            return 0.1 + 0.05 * last + 0.0 * X[:, 0]
        c = CoefficientField.adapted(last_step, (), markov=False, t_free=True)
        scn = markov_scenario(1).with_fields(c=c)
        tree = build_tree(1, 3, 3, scn.horizon)
        fast, slow, counts = self.solve_counted(assemblies, solve_tree, scn, tree)
        nodes = sum(tree.levels[k].n_nodes for k in range(tree.n_steps))
        assert counts == (nodes, nodes)
        self.assert_bit_equal(fast, slow)

    @pytest.mark.parametrize("case", ["chain", "deterministic_2d_tree"])
    def test_one_operator_object_serves_every_level(self, assemblies, monkeypatch, case):
        # coefficients that read none of t, w and the history: the first
        # level's LevelOperators, with its one inverse, is every level's
        if case == "chain":
            scn, basis = load_scenario_text(CHAIN_TEXT)[0], BASIS
            filtration = build_chain(1, 64, scn.horizon)
        else:  # det_ops_2d's shape: 2-d divergence form, only phi reads w1
            scn = load_scenario_text(DIVERGENCE_MARKOV_TEXT.replace(" + 0.02*sin(w1)", ""))[0]
            assert scn.coefficients_deterministic and not scn.phi.is_deterministic
            filtration, basis = build_tree(1, 4, 3, scn.horizon), SpectralBasis(2, 3, np.pi)
        inverses = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a, _inv=np.linalg.inv: inverses.append(a.shape) or _inv(a))
        fields, seen = LevelFields(scn, filtration, basis), []

        def operators(level):
            seen.append(fields.operators(level))
            return seen[-1]
        got = backward_solve(filtration, basis, SchemeConfig(theta=0.5), fields.terminal(),
                             operators, fields.source)
        assert len(seen) == filtration.n_steps and all(ops is seen[0] for ops in seen)
        assert (assemblies.count("assemble_L"), assemblies.count("assemble_M")) == (1, 1)
        assert inverses == [(1, basis.n_modes, basis.n_modes)]
        want = solve_tree(declared_time_dependent(scn), filtration, basis, SchemeConfig(theta=0.5))
        self.assert_bit_equal(got, want)
        # another theta on the same provider makes its own inverse, once
        inverses.clear()
        got = backward_solve(filtration, basis, SchemeConfig(), fields.terminal(),
                             fields.operators, fields.source)
        assert inverses == [(1, basis.n_modes, basis.n_modes)]
        self.assert_bit_equal(got, solve_tree(declared_time_dependent(scn), filtration, basis))

    def test_kept_rows_are_handed_out_read_only(self):
        scn = load_scenario_text(CHAIN_TEXT)[0]
        chain = build_chain(1, 4, scn.horizon)
        fields, fresh = LevelFields(scn, chain, BASIS), LevelFields(scn, chain, BASIS)
        X = BASIS.grid_points

        def grid(provider, level):
            return provider.level_rows(level, [scn.F], lambda t, states:
                                       scn.F.evaluate_states(t, X, states), ("grid", scn.F))[0]
        for level in (0, 1):  # the first read keeps the row, the second finds it
            rows, ops, source = grid(fields, level), fields.operators(level), fields.source(level)
            for array in (rows, ops.L, ops.Ms, source):
                assert array.shape[0] == 1
                with pytest.raises(ValueError, match="read-only"):
                    array[0] += 1.0
        assert grid(fields, 2).tobytes() == grid(fresh, 2).tobytes()
        assert fields.source(2).tobytes() == fresh.source(2).tobytes()
        for a, b in zip(node_operators(fields.operators(2)), node_operators(fresh.operators(2))):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_path_blocks_step_as_fresh_providers_do(self, theta):
        # two path blocks share one provider's rows through ``select``, and
        # with them one operator object and its kept inverse
        scn = load_scenario_text(CHAIN_TEXT)[0]
        ens = sample_paths(1, 8, 40, scn.horizon, seed=7)
        fields, cuts = LevelFields(scn, ens, BASIS), (slice(0, 15), slice(15, None))
        blocks = [(sl, fields.select(sl)) for sl in cuts]
        kept = []

        def shared(level):
            pairs = [(sl, b.operators(level)) for sl, b in blocks]
            kept.extend(ops for _, ops in pairs)
            return pairs

        def fresh(level):
            return [(sl, LevelFields(scn, ens, BASIS).select(sl).operators(level))
                    for sl in cuts]

        def expect(level, p):  # each path's own p and p dW / dt, as values
            return p, p[:, None] * (ens.increments[:, level] / ens.dt)[:, :, None], None
        start = np.array(np.broadcast_to(fields.terminal(), (40, BASIS.n_modes)))
        runs = [list(_backward(ens, SchemeConfig(theta=theta), start, operators, source, expect))
                for operators, source in (
                    (shared, fields.source),
                    (fresh, lambda level: LevelFields(scn, ens, BASIS).source(level)))]
        assert len(runs[0]) == ens.n_steps
        for (level, p, q, _), (want_level, want_p, want_q, _) in zip(*runs):
            assert level == want_level
            assert p.tobytes() == want_p.tobytes() and q.tobytes() == want_q.tobytes()
        assert all(ops is kept[0] for ops in kept) and len(kept) == 2 * ens.n_steps
