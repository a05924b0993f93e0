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
    SpectralBasis,
    build_tree,
    gauss_hermite_standard,
    sample_paths,
)
from bspde.solver import AdaptedField
from helpers import (e_sup_norm_sq_reference, ensemble_history, reference_expectations,
                     reference_history, reference_level_increments, reference_levels,
                     wiener_values)
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
        assert np.allclose(np.sort(tree.increments.ravel()),
                           [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-14)
        assert np.allclose(tree.weights, 0.5)

    def test_three_point_increments(self):
        tree = build_tree(1, 3, 3, 0.75)
        dt = 0.25
        assert np.allclose(np.sort(tree.increments.ravel()),
                           [-np.sqrt(3 * dt), 0.0, np.sqrt(3 * dt)], atol=1e-14)
        assert np.allclose(np.sort(tree.weights), [1 / 6, 1 / 6, 2 / 3], atol=1e-14)

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
        r = np.sqrt(0.5)
        expected = {(-r, -r), (-r, r), (r, -r), (r, r)}
        assert tree.increments.shape == (4, 2)
        got = {tuple(np.round(row, 12)) for row in tree.increments}
        assert got == {tuple(np.round(e, 12)) for e in expected}
        assert np.allclose(tree.weights, 0.25)

    def test_per_node_child_moments(self):
        tree = build_tree(1, 2, 3, 1.0)
        dt = tree.dt
        ref = reference_levels(tree)
        for level in range(tree.n_steps):
            lv_next = ref[level + 1]
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
        dw = tree.increments[:, 0]
        assert np.dot(tree.weights, dw**4) == pytest.approx(tree.dt**2, rel=1e-12)

    def test_history_matches_cumulative_sum(self):
        tree = build_tree(2, 3, 2, 0.9)
        for level in [1, 2, 3]:
            for node in [0, len(tree.levels[level].prob) - 1]:
                h = tree.history(level, node)
                assert h.increments.shape == (level, 2)
                assert np.allclose(h.w, wiener_values(tree, level)[node], atol=1e-13)
                assert h.t == pytest.approx(tree.time_of(level))

    def test_parent_links(self):
        # node i of level k+1 is child i % C of node i // C of level k
        tree = build_tree(1, 2, 2, 1.0)
        for node, parent in enumerate(reference_levels(tree)[2].parents):
            sl = tree.children_slice(1, parent)
            assert sl.start <= node < sl.stop
            assert divmod(node, tree.n_children) == (parent, node - sl.start)

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            build_tree(1, 2, 4, 1.0)
        with pytest.raises(ValueError):
            build_tree(1, 0, 2, 1.0)

    def test_node_budget(self, monkeypatch):
        # a node holds its probability; the branch pattern is stored once
        with pytest.raises(BudgetError) as exc:
            build_tree(1, 20, 3, 1.0)
        assert exc.value.budget == 1 << 31
        assert exc.value.count == (3 ** 21 - 1) // 2 * 8
        tree_bytes = 21 * 8  # the 1 + 4 + 16 nodes of a dim_w = 2 tree
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", tree_bytes - 1)
        with pytest.raises(BudgetError) as exc:
            build_tree(2, 2, 2, 1.0)
        assert (exc.value.count, exc.value.budget) == (tree_bytes, tree_bytes - 1)
        monkeypatch.setattr(bspde.errors, "_MEMORY_BYTES", tree_bytes)
        assert build_tree(2, 2, 2, 1.0).n_nodes == 21

    @pytest.mark.parametrize("n_steps, size", [
        (20, f"{(3 ** 21 - 1) // 2 * 8} bytes"),     # fits in 64 bits: every digit
        (20000, "about 2^31703 bytes")],            # 9,544 digits: a power of two
        ids=["64-bit-count", "longer-count"])
    def test_node_budget_message_prints_any_count(self, n_steps, size):
        with pytest.raises(BudgetError) as exc:
            build_tree(1, n_steps, 3, 1.0)
        assert exc.value.count == (3 ** (n_steps + 1) - 1) // 2 * 8
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


PATTERNS = [(1, 3, 4), (2, 3, 3), (1, 2, 5), (2, 2, 3), (1, 5, 3), (3, 2, 2)]


class TestPatternAgainstPerNodeReference:
    """The pattern tree reads, bit for bit, what the per-node arrays of
    ``helpers.reference_levels`` and their parent walks give."""

    @pytest.fixture(params=PATTERNS + ["chain"],
                    ids=[f"d{d}B{b}N{n}" for d, b, n in PATTERNS] + ["chain"])
    def tree(self, request):
        if request.param == "chain":
            return build_chain(2, 4, 0.8)
        dim_w, branching, n_steps = request.param
        return build_tree(dim_w, n_steps, branching, 0.8)

    def test_prob_and_increments(self, tree):
        ref = reference_levels(tree)
        assert len(ref) == len(tree.levels)
        for k, (got, want) in enumerate(zip(tree.levels, ref)):
            assert got.prob.tobytes() == want.prob.tobytes()
            incs = tree.level_increments(k)
            assert (incs.shape, incs.tobytes()) == \
                (want.increments.shape[:1] + (k, tree.dim_w),
                 reference_level_increments(ref, k).tobytes())

    def test_history(self, tree):
        ref = reference_levels(tree)
        for k in range(len(ref)):
            for node in range(tree.levels[k].n_nodes):
                got, want = tree.history(k, node), reference_history(ref, k, node, tree.dt)
                assert (got.t, got.dt) == (want.t, want.dt)
                assert got.increments.tobytes() == want.increments.tobytes()
                assert got.w.tobytes() == want.w.tobytes()

    @pytest.mark.parametrize("tail", ["scalar", "modes", "noise_modes"])
    def test_expectations(self, tree, tail):
        ref = reference_levels(tree)
        rng = np.random.default_rng(12)
        shape = {"scalar": (), "modes": (5,), "noise_modes": (tree.dim_w, 5)}[tail]
        for k in range(tree.n_steps):
            vals = rng.standard_normal((tree.levels[k + 1].n_nodes,) + shape)
            for got, want in zip(tree.expectations(k, vals),
                                 reference_expectations(ref, k, vals, tree.dt)):
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize("noise", [False, True])
    def test_e_sup_norm_sq(self, tree, noise):
        basis = SpectralBasis(1, 3, np.pi)
        rng = np.random.default_rng(13)
        tail = (tree.dim_w, basis.n_modes) if noise else (basis.n_modes,)
        field = AdaptedField(tree, basis, [rng.standard_normal((lv.n_nodes,) + tail)
                                           for lv in tree.levels])
        for order in (0, 1):
            assert field.e_sup_norm_sq(order) == e_sup_norm_sq_reference(field, order)


class TestConditionalExpectation:
    def test_constant(self):
        tree = build_tree(1, 1, 3, 0.5)
        vals = np.full(3, 7.0)
        assert tree.expectations(0, vals)[0][0] == pytest.approx(7.0)

    def test_increment_mean_zero(self):
        tree = build_tree(1, 1, 3, 0.5)
        dw = tree.increments[:, 0]
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
        ref = brute_tree_expectation([lv.weights for lv in reference_levels(tree)],
                                     leaf_vals)
        assert vals[0] == pytest.approx(ref, rel=1e-12)
        # and against the stored unconditional probabilities
        assert vals[0] == pytest.approx(np.dot(tree.levels[3].prob, leaf_vals), rel=1e-12)

    def test_rows_follow_children_slices(self):
        tree = build_tree(2, 2, 2, 0.5)
        vals = np.random.default_rng(5).standard_normal((tree.levels[2].n_nodes, 3))
        got = tree.expectations(1, vals)[0]
        for node in range(tree.levels[1].n_nodes):
            sl = tree.children_slice(1, node)
            assert np.allclose(got[node], tree.weights @ vals[sl], atol=1e-15)

    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    def test_conditional_mean_is_the_first_expectation(self, tail):
        tree = build_tree(2, 2, 3, 0.5)
        vals = np.random.default_rng(6).standard_normal((tree.levels[2].n_nodes,) + tail)
        got = tree.conditional_mean(1, vals)
        want = tree.expectations(1, vals)[0]
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        with pytest.raises(ValueError):
            tree.conditional_mean(2, np.zeros(1))
        with pytest.raises(ValueError):
            tree.conditional_mean(1, np.zeros(5))


class TestMartingaleCoefficient:
    def test_affine_exact(self):
        tree = build_tree(2, 1, 2, 0.5)
        dw = tree.increments
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
        dw = tree.increments[:, 0]
        coef = tree.expectations(0, dw**2)[1]
        assert np.allclose(coef, 0.0, atol=1e-12)

    def test_vector_values(self):
        tree = build_tree(1, 1, 2, 0.5)
        dw = tree.increments[:, 0]
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
        assert chain.increments.shape == (1, 1) and not chain.increments.any()
        assert chain.weights.tolist() == [1.0]

    def test_chain_conditional_expectation_passthrough(self):
        chain = build_chain(1, 3, 1.0)
        assert chain.expectations(1, np.array([3.5]))[0][0] == pytest.approx(3.5)

    @pytest.mark.parametrize("dim_w, n_steps", [(1, 1), (1, 5), (2, 4)])
    def test_chain_levels_are_those_of_the_grown_chain(self, dim_w, n_steps):
        # the shared level is bit for bit the level a one-child pattern grows
        chain = build_chain(dim_w, n_steps, 0.7)
        for got, want in ((chain.increments, np.zeros((1, dim_w))),
                          (chain.weights, np.ones(1))):
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes())
        grown = reference_levels(chain)
        assert (chain.dt, len(chain.levels)) == (0.7 / n_steps, len(grown))
        for k, (got, want) in enumerate(zip(chain.levels, grown)):
            assert got.prob.tobytes() == want.prob.tobytes()
            assert chain.level_increments(k).tobytes() == \
                reference_level_increments(grown, k).tobytes()

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
