"""Quadrature trees, conditional expectations, and path ensembles."""

import tracemalloc

import numpy as np
import pytest

from dataclasses import fields

import bspde.errors
import bspde.wiener
from bspde import (
    BudgetError,
    build_chain,
    build_tree,
    gauss_hermite_standard,
    sample_paths,
)
from bspde.wiener import _grow
from helpers import ensemble_history, wiener_values
from oracles import brute_tree_expectation, gauss_hermite_probabilist


class TestGaussHermite:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_golub_welsch(self, n):
        z, w = gauss_hermite_standard(n)
        z_ref, w_ref = gauss_hermite_probabilist(n)
        assert np.allclose(np.sort(z), np.sort(z_ref), atol=1e-12)
        assert np.allclose(w[np.argsort(z)], w_ref[np.argsort(z_ref)], atol=1e-12)

    def test_three_point_closed_form(self):
        z, w = gauss_hermite_standard(3)
        order = np.argsort(z)
        assert np.allclose(z[order], [-np.sqrt(3.0), 0.0, np.sqrt(3.0)], atol=1e-12)
        assert np.allclose(w[order], [1 / 6, 2 / 3, 1 / 6], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moments(self, n):
        z, w = gauss_hermite_standard(n)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.dot(w, z) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(w, z**2) == pytest.approx(1.0, abs=1e-12)


class TestTreeStructure:
    def test_two_point_increments(self):
        # T=1, two steps: children move by +-sqrt(dt) = +-sqrt(1/2)
        tree = build_tree(1, 2, 2, 1.0)
        lv = tree.levels[1]
        assert np.allclose(np.sort(lv.increments.ravel()),
                           [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-14)
        assert np.allclose(lv.weights, 0.5)

    def test_three_point_increments(self):
        tree = build_tree(1, 3, 3, 0.75)
        dt = 0.25
        lv = tree.levels[1]
        assert np.allclose(np.sort(lv.increments.ravel()),
                           [-np.sqrt(3 * dt), 0.0, np.sqrt(3 * dt)], atol=1e-14)
        assert np.allclose(np.sort(lv.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-14)

    def test_node_counts_and_probabilities(self):
        tree = build_tree(2, 3, 2, 1.0)
        n_children = 2 ** 2
        for k, lv in enumerate(tree.levels):
            assert len(lv.prob) == n_children ** k
            assert lv.prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert tree.n_children == n_children
        assert tree.n_nodes == sum(n_children ** k for k in range(4))

    def test_tensor_product_children(self):
        tree = build_tree(2, 1, 2, 0.5)
        lv = tree.levels[1]
        r = np.sqrt(0.5)
        expected = {(-r, -r), (-r, r), (r, -r), (r, r)}
        got = {tuple(np.round(row, 12)) for row in lv.increments}
        assert got == {tuple(np.round(e, 12)) for e in expected}
        assert np.allclose(lv.weights, 0.25)

    def test_per_node_child_moments(self):
        tree = build_tree(1, 2, 3, 1.0)
        dt = tree.dt
        for level in range(tree.n_steps):
            lv_next = tree.levels[level + 1]
            for node in range(len(tree.levels[level].prob)):
                sl = tree.children_slice(level, node)
                w = lv_next.weights[sl]
                dw = lv_next.increments[sl, 0]
                assert np.dot(w, dw) == pytest.approx(0.0, abs=1e-13)
                assert np.dot(w, dw**2) == pytest.approx(dt, abs=1e-13)
                # 3-point rule integrates quartics of a Gaussian exactly
                assert np.dot(w, dw**4) == pytest.approx(3 * dt**2, rel=1e-12)

    def test_two_point_kurtosis_deficit(self):
        # the 2-point rule matches only the first three moments
        tree = build_tree(1, 1, 2, 0.25)
        lv = tree.levels[1]
        dw = lv.increments[:, 0]
        assert np.dot(lv.weights, dw**4) == pytest.approx(tree.dt**2, rel=1e-12)

    def test_history_matches_cumulative_sum(self):
        tree = build_tree(2, 3, 2, 0.9)
        for level in [1, 2, 3]:
            for node in [0, len(tree.levels[level].prob) - 1]:
                h = tree.history(level, node)
                assert h.increments.shape == (level, 2)
                assert np.allclose(h.w, wiener_values(tree, level)[node], atol=1e-13)
                assert h.t == pytest.approx(tree.time_of(level))

    def test_parent_links(self):
        tree = build_tree(1, 2, 2, 1.0)
        lv = tree.levels[2]
        for node, parent in enumerate(lv.parents):
            sl = tree.children_slice(1, parent)
            assert sl.start <= node < sl.stop

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            build_tree(1, 2, 4, 1.0)
        with pytest.raises(ValueError):
            build_tree(1, 0, 2, 1.0)

    def test_node_budget(self, monkeypatch):
        # a node holds parents, weights and prob, and dim_w increments
        with pytest.raises(BudgetError) as exc:
            build_tree(1, 20, 3, 1.0)
        assert exc.value.budget == 1 << 31
        assert exc.value.count == (3 ** 21 - 1) // 2 * 4 * 8
        tree_bytes = 21 * (3 + 2) * 8  # the 1 + 4 + 16 nodes of a dim_w = 2 tree
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", tree_bytes - 1)
        with pytest.raises(BudgetError) as exc:
            build_tree(2, 2, 2, 1.0)
        assert (exc.value.count, exc.value.budget) == (tree_bytes, tree_bytes - 1)
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", tree_bytes)
        assert build_tree(2, 2, 2, 1.0).n_nodes == 21

    @pytest.mark.parametrize("n_steps, size", [
        (20, f"{(3 ** 21 - 1) // 2 * 32} bytes"),    # fits in 64 bits: every digit
        (20000, "about 2^31705 bytes")],            # 9,545 digits: a power of two
        ids=["64-bit-count", "longer-count"])
    def test_node_budget_message_prints_any_count(self, n_steps, size):
        with pytest.raises(BudgetError) as exc:
            build_tree(1, n_steps, 3, 1.0)
        assert exc.value.count == (3 ** (n_steps + 1) - 1) // 2 * 32
        assert str(exc.value) == f"a tree of {n_steps} steps would take {size}, over {1 << 31}"

    @pytest.mark.parametrize("dim_w, n_steps, branching", [(1, 4, 3), (2, 3, 2)])
    def test_byte_check_is_the_built_size(self, dim_w, n_steps, branching, monkeypatch):
        # the count checked before the build is the bytes of every level array
        checked = []
        monkeypatch.setattr(bspde.wiener, "check_bytes",
                            lambda nbytes, what: checked.append(nbytes))
        tree = build_tree(dim_w, n_steps, branching, 1.0)
        built = sum(getattr(level, f.name).nbytes
                    for level in tree.levels for f in fields(level))
        assert checked == [built]


class TestConditionalExpectation:
    def test_constant(self):
        tree = build_tree(1, 1, 3, 0.5)
        vals = np.full(3, 7.0)
        assert tree.expectations(0, vals)[0][0] == pytest.approx(7.0)

    def test_increment_mean_zero(self):
        tree = build_tree(1, 1, 3, 0.5)
        dw = tree.levels[1].increments[:, 0]
        assert tree.expectations(0, dw)[0][0] == pytest.approx(0.0, abs=1e-14)
        assert tree.expectations(0, dw**2)[0][0] == pytest.approx(tree.dt, abs=1e-14)

    def test_terminal_and_mismatch_rejected(self):
        tree = build_tree(1, 1, 2, 0.5)
        with pytest.raises(ValueError):
            tree.expectations(1, np.zeros(2))[0]
        with pytest.raises(ValueError):
            tree.expectations(0, np.zeros(5))[0]

    def test_tower_property_against_brute_force(self):
        tree = build_tree(1, 3, 3, 1.0)
        rng = np.random.default_rng(77)
        leaf_vals = rng.standard_normal(len(tree.levels[3].prob))
        vals = leaf_vals
        for level in range(2, -1, -1):
            vals = tree.expectations(level, vals)[0]
            assert vals.shape == (tree.levels[level].n_nodes,)
        ref = brute_tree_expectation([lv.weights for lv in tree.levels], leaf_vals)
        assert vals[0] == pytest.approx(ref, rel=1e-12)
        # and against the stored unconditional probabilities
        assert vals[0] == pytest.approx(np.dot(tree.levels[3].prob, leaf_vals), rel=1e-12)

    def test_rows_follow_children_slices(self):
        tree = build_tree(2, 2, 2, 0.5)
        vals = np.random.default_rng(5).standard_normal((tree.levels[2].n_nodes, 3))
        got = tree.expectations(1, vals)[0]
        for node in range(tree.levels[1].n_nodes):
            sl = tree.children_slice(1, node)
            assert np.allclose(got[node], tree.levels[2].weights[sl] @ vals[sl], atol=1e-15)


class TestMartingaleCoefficient:
    def test_affine_exact(self):
        tree = build_tree(2, 1, 2, 0.5)
        dw = tree.levels[1].increments
        vals = 5.0 + 3.0 * dw[:, 0]
        coef = tree.expectations(0, vals)[1]
        assert np.allclose(coef[0], [3.0, 0.0], atol=1e-12)
        vals = -1.0 + 2.0 * dw[:, 1]
        assert np.allclose(tree.expectations(0, vals)[1][0], [0.0, 2.0], atol=1e-12)

    def test_constant_gives_zero(self):
        tree = build_tree(1, 1, 3, 0.5)
        coef = tree.expectations(0, np.full(3, 4.2))[1]
        assert np.allclose(coef, 0.0, atol=1e-13)

    def test_even_function_gives_zero(self):
        tree = build_tree(1, 1, 3, 0.5)
        dw = tree.levels[1].increments[:, 0]
        coef = tree.expectations(0, dw**2)[1]
        assert np.allclose(coef, 0.0, atol=1e-12)

    def test_vector_values(self):
        tree = build_tree(1, 1, 2, 0.5)
        dw = tree.levels[1].increments[:, 0]
        vals = np.stack([1.0 + 2.0 * dw, 3.0 * dw], axis=-1)  # (children, 2)
        coef = tree.expectations(0, vals)[1]
        assert coef.shape == (1, 1, 2)
        assert np.allclose(coef[0, 0], [2.0, 3.0], atol=1e-12)

    def test_terminal_and_mismatch_rejected(self):
        tree = build_tree(1, 1, 2, 0.5)
        with pytest.raises(ValueError):
            tree.expectations(1, np.zeros(2))[1]
        with pytest.raises(ValueError):
            tree.expectations(0, np.zeros(5))[1]


class TestChain:
    def test_chain_shape(self):
        chain = build_chain(1, 5, 1.0)
        assert chain.is_chain
        assert chain.n_children == 1
        assert chain.n_nodes == 6
        for lv in chain.levels:
            assert len(lv.prob) == 1
            assert lv.prob[0] == pytest.approx(1.0)
            assert not lv.increments.any()

    def test_chain_conditional_expectation_passthrough(self):
        chain = build_chain(1, 3, 1.0)
        assert chain.expectations(1, np.array([3.5]))[0][0] == pytest.approx(3.5)

    @pytest.mark.parametrize("dim_w, n_steps", [(1, 1), (1, 5), (2, 4)])
    def test_chain_levels_are_those_of_the_grown_chain(self, dim_w, n_steps):
        # the shared level is bit for bit the level a one-child tree grows
        chain = build_chain(dim_w, n_steps, 0.7)
        grown = _grow(dim_w, n_steps, 1, 0.7, (np.zeros((1, dim_w)), np.ones(1)))
        assert (chain.dt, chain.n_steps, len(chain.levels)) == \
            (grown.dt, grown.n_steps, len(grown.levels))
        for got, want in zip(chain.levels, grown.levels):
            for name in ("parents", "increments", "weights", "prob"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_chain_costs_a_list_slot_per_level(self):
        tracemalloc.start()
        try:
            chain = build_chain(1, 200_000, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain.n_nodes == 200_001
        assert peak < 4 * 2 ** 20


class TestPathEnsemble:
    def test_seed_reproducibility(self):
        a = sample_paths(2, 6, 50, 1.0, seed=11)
        b = sample_paths(2, 6, 50, 1.0, seed=11)
        c = sample_paths(2, 6, 50, 1.0, seed=12)
        assert np.array_equal(a.increments, b.increments)
        assert not np.array_equal(a.increments, c.increments)

    def test_w_at_is_cumulative(self):
        # W at step s is the sum of the first s increments; the regression
        # solver reads every step's W from one cumulative sum
        ens = sample_paths(2, 4, 10, 1.0, seed=3)
        w = np.cumsum(ens.increments, axis=1)
        assert np.allclose(ens.increments[:, :0, :].sum(axis=1), 0.0)
        assert np.allclose(w[:, 2], ens.increments[:, :3, :].sum(axis=1))

    def test_history_agrees_with_w_at(self):
        ens = sample_paths(1, 4, 10, 1.0, seed=3)
        h = ensemble_history(ens, 7, 2)
        assert h.increments.shape == (2, 1)
        assert np.allclose(h.w, ens.increments[:, :2, :].sum(axis=1)[7])

    def test_increment_marginals(self):
        ens = sample_paths(1, 16, 100_000, 1.0, seed=2024)
        wT = ens.increments[:, :16, :].sum(axis=1)[:, 0]
        assert abs(wT.var() - 1.0) < 0.05
        assert abs(wT.mean()) < 0.02

    def test_clt_bound_across_seeds(self):
        # deterministic given the fixed seed range: every per-step increment
        # mean stays within four standard errors
        n_paths, n_steps = 400, 4
        dt = 1.0 / n_steps
        bound = 4.0 * np.sqrt(dt / n_paths)
        total = failures = 0
        for seed in range(100):
            ens = sample_paths(1, n_steps, n_paths, 1.0, seed=seed)
            means = ens.increments.mean(axis=0)
            total += means.size
            failures += int((np.abs(means) > bound).sum())
        assert failures / total <= 1.0 - 0.9999
