"""Discrete Wiener filtration: quadrature trees and path ensembles.

The tree realises the driving noise as a non-recombining Gauss-Hermite tree.
The increments of a Wiener process are i.i.d., so every node spawns the same
``branching**dim_w`` children: one pattern of edge increments (the tensorised
Gauss-Hermite abscissae scaled by sqrt(dt)) and matching product weights,
stored once on the tree.  Node i of level k+1 is child ``i % C`` of node
``i // C`` of level k, so a level keeps only its node probabilities.
Conditional expectations on the tree are then plain weighted sums over the
pattern, exact for the represented filtration, and the discrete
martingale-representation coefficient is the increment-weighted sum divided
by dt.

``build_chain`` is the degenerate single-path variant (the pattern of one zero
increment with unit weight) used to run deterministic scenarios at large step
counts, where a branching tree would be astronomically large; it does not
satisfy the second-moment matching and must not be used with adapted data.

A filtration states its own Wiener values (``states``): a level's distinct W
rows, told apart by their bytes, and each node's row, read-only.  A tree
keeps them once per level for every solve and audit on it; an ensemble's
paths hold their own states, which never recur past t = 0 (``states_recur``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import check_bytes
from .scenario import PathHistory

Array = np.ndarray

ALLOWED_BRANCHING = (2, 3, 5)


def _distinct_rows(w: Array) -> tuple[Array, Array]:
    """The distinct rows of ``w`` and each row's place among them, read-only:
    a write raises instead of changing every later read.  Rows are compared
    by their bytes (``-0.0`` is not ``0.0``); one column is sorted as plain
    numbers, more as records of their columns, in the same order."""
    bits = w.view(np.uint64)
    if bits.shape[1] == 1:
        _, first, inverse = np.unique(bits[:, 0], return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    states, index = w[first], inverse.reshape(-1)
    states.flags.writeable = index.flags.writeable = False
    return states, index


def gauss_hermite_standard(n_points: int) -> tuple[Array, Array]:
    """Nodes and weights integrating a standard normal exactly to degree 2n-1."""
    x, w = hermgauss(n_points)
    z = np.sqrt(2.0) * x
    w = w / np.sqrt(np.pi)
    return z, w / w.sum()


@dataclass(frozen=True)
class TreeLevel:
    """All nodes at one time level: ``prob[i]`` is node i's unconditional
    probability.  Its place in the tree is its index (see ``WienerTree``)."""

    prob: Array

    @property
    def n_nodes(self) -> int:
        return len(self.prob)


@dataclass(frozen=True)
class WienerTree:
    """Levels 0..n_steps of nodes, every node with the children of one pattern:
    child j moves by ``increments[j]`` (C, dim_w) with probability
    ``weights[j]`` (C,).  Node i of level k+1 is child ``i % C`` of node
    ``i // C`` of level k, so a node's W is the sum of the pattern rows its
    index spells out (``level_increments``)."""

    dim_w: int
    n_steps: int
    branching: int
    horizon: float
    dt: float
    increments: Array
    weights: Array
    levels: list[TreeLevel]
    _states: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    states_recur = True  # a W value comes back at other nodes and levels

    @property
    def n_children(self) -> int:
        return len(self.weights)

    @property
    def n_nodes(self) -> int:
        return sum(level.n_nodes for level in self.levels)

    @property
    def is_chain(self) -> bool:
        return self.branching == 1

    def time_of(self, level: int) -> float:
        return level * self.dt

    def children_slice(self, level: int, index: int) -> slice:
        """Indices of the children of node ``index`` at ``level`` in level+1."""
        c = self.n_children
        return slice(index * c, (index + 1) * c)

    def history(self, level: int, index: int) -> PathHistory:
        """Increment prefix along the root-to-node chain."""
        incs = np.zeros((level, self.dim_w))
        for lev in range(level, 0, -1):
            index, child = divmod(index, self.n_children)
            incs[lev - 1] = self.increments[child]
        return PathHistory(level * self.dt, self.dt, incs, incs.sum(axis=0))

    def level_increments(self, level: int) -> Array:
        """Every node's increments, ``(n_level, level, dim_w)``, read off its index."""
        idx = np.arange(self.levels[level].n_nodes)
        incs = np.zeros((len(idx), level, self.dim_w))
        for lev in range(level, 0, -1):
            idx, child = np.divmod(idx, self.n_children)
            incs[:, lev - 1] = self.increments[child]
        return incs

    def states(self, level: int) -> tuple[Array, Array]:
        """The level's distinct W rows (s, dim_w) and each node's row, kept: the
        sums of its increments, in the order of each ``history(...).w``."""
        if level not in self._states:
            self._states[level] = _distinct_rows(self.level_increments(level).sum(axis=1))
        return self._states[level]

    def _by_parent(self, level: int, values) -> Array:
        """``values``, one row per node of ``level + 1``, as (n_level, C, ...)."""
        if level >= self.n_steps:
            raise ValueError("terminal nodes have no children")
        nxt = self.levels[level + 1].n_nodes
        vals = np.asarray(values)
        if vals.shape[0] != nxt:
            raise ValueError(f"expected {nxt} child values, got {vals.shape[0]}")
        return vals.reshape((self.levels[level].n_nodes, self.n_children) + vals.shape[1:])

    @cached_property
    def _child_factors(self) -> Array:  # a one-child pattern's weight, then weighted increments
        return np.concatenate([self.weights, self.weights[0] * self.increments[0]])

    def conditional_mean(self, level: int, values) -> Array:
        """Exact ``E[values | node]`` for every node of ``level``.

        ``values`` holds one row per node of ``level + 1``, in tree order, of
        any trailing shape; the result is ``(n_level, ...)``.
        """
        return np.einsum("c,nc...->n...", self.weights, self._by_parent(level, values))

    def expectations(self, level: int, values) -> tuple[Array, Array]:
        """``conditional_mean`` and the discrete martingale-representation
        coefficient ``E[values dW | node] / dt``, ``(n_level, dim_w, ...)``,
        for every node of ``level``.  For affine child data the coefficient
        is the representation coefficient exactly.
        """
        vals = self._by_parent(level, values)
        if self.n_children == 1:  # each sum is its one term, the child's row times a factor
            terms = self._child_factors.reshape((-1,) + (1,) * (vals.ndim - 2)) * vals
            terms += 0.0  # the +0.0 the sums start at: a -0.0 child gives +0.0
            return terms[:, 0], terms[:, 1:] / self.dt
        return (np.einsum("c,nc...->n...", self.weights, vals),
                np.einsum("c,ck,nc...->nk...", self.weights, self.increments, vals) / self.dt)


def _branch_pattern(dim_w: int, branching: int, dt: float) -> tuple[Array, Array]:
    """Tensorised child increments (C, dim_w) and product weights (C,)."""
    z, w = gauss_hermite_standard(branching)
    grids = np.meshgrid(*([z] * dim_w), indexing="ij")
    incs = np.stack([g.ravel() for g in grids], axis=-1) * np.sqrt(dt)
    wgrids = np.meshgrid(*([w] * dim_w), indexing="ij")
    weights = np.ones(branching ** dim_w)
    for g in wgrids:
        weights = weights * g.ravel()
    return incs, weights


def _tree_nodes(dim_w: int, n_steps: int, branching: int) -> int:
    """Node count of ``build_tree``'s tree, refused before any level exists
    if its probabilities, one per node, would pass the byte budget."""
    c = branching ** dim_w
    nodes = (c ** (n_steps + 1) - 1) // (c - 1)
    check_bytes(nodes * 8, f"a tree of {n_steps} steps")
    return nodes


def build_tree(dim_w: int, n_steps: int, branching: int, horizon: float) -> WienerTree:
    """Non-recombining Gauss-Hermite tree over [0, horizon] with n_steps levels."""
    if branching not in ALLOWED_BRANCHING:
        raise ValueError(f"branching must be one of {ALLOWED_BRANCHING}, got {branching}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _tree_nodes(dim_w, n_steps, branching)
    increments, weights = _branch_pattern(dim_w, branching, horizon / n_steps)
    levels = [TreeLevel(np.ones(1))]
    for _ in range(n_steps):
        levels.append(TreeLevel(np.outer(levels[-1].prob, weights).ravel()))
    return WienerTree(dim_w, n_steps, branching, horizon, horizon / n_steps,
                      increments, weights, levels)


def build_chain(dim_w: int, n_steps: int, horizon: float) -> WienerTree:
    """Single-path degenerate tree for deterministic scenarios (see module doc):
    the pattern of one child with a zero increment and unit weight.

    Every level is the same one node of probability 1, so the chain holds one
    ``TreeLevel`` object for all of them: a level costs a list slot.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    level = TreeLevel(np.ones(1))
    return WienerTree(dim_w, n_steps, 1, horizon, horizon / n_steps,
                      np.zeros((1, dim_w)), np.ones(1), [level] * (n_steps + 1))


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded bundle of sampled Wiener paths on a uniform time grid."""

    dim_w: int
    n_steps: int
    n_paths: int
    seed: int
    horizon: float
    dt: float
    increments: Array  # (n_paths, n_steps, dim_w)

    states_recur = False  # past t = 0 a path's W is its own

    def level_increments(self, step: int) -> Array:
        """Every path's first ``step`` increments, ``(n_paths, step, dim_w)``."""
        return self.increments[:, :step, :]

    def states(self, step: int) -> tuple[Array, Array]:
        """The paths' distinct W rows at ``step`` and each path's row, read-only."""
        return _distinct_rows(self.level_increments(step).sum(axis=1))

    def select(self, paths: slice) -> "PathEnsemble":
        """The sub-ensemble of the given paths."""
        inc = self.increments[paths]
        return replace(self, n_paths=inc.shape[0], increments=inc)


def sample_paths(dim_w: int, n_steps: int, n_paths: int, horizon: float,
                 seed: int) -> PathEnsemble:
    """Draw iid Gaussian increments; bit-reproducible for a given seed."""
    if n_paths < 1 or n_steps < 1:
        raise ValueError("n_paths and n_steps must be >= 1")
    check_bytes(n_paths * n_steps * dim_w * 8, f"the increments of {n_paths} paths")
    dt = horizon / n_steps
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((n_paths, n_steps, dim_w)) * np.sqrt(dt)
    return PathEnsemble(dim_w, n_steps, n_paths, seed, horizon, dt, inc)
