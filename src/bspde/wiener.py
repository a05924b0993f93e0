"""Discrete Wiener filtration: quadrature trees and path ensembles.

The tree realises the driving noise as a non-recombining Gauss-Hermite tree:
every node at level k spawns ``branching**dim_w`` children whose edge
increments are the tensorised Gauss-Hermite abscissae scaled by sqrt(dt), with
the matching product weights.  Conditional expectations on the tree are then
plain weighted sums, exact for the represented filtration, and the discrete
martingale-representation coefficient is the increment-weighted sum divided
by dt.

``build_chain`` is the degenerate single-path variant (zero increments, unit
weight) used to run deterministic scenarios at large step counts, where a
branching tree would be astronomically large; it does not satisfy the
second-moment matching and must not be used with adapted data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import check_bytes
from .scenario import PathHistory

Array = np.ndarray

ALLOWED_BRANCHING = (2, 3, 5)


def gauss_hermite_standard(n_points: int) -> tuple[Array, Array]:
    """Nodes and weights integrating a standard normal exactly to degree 2n-1."""
    x, w = hermgauss(n_points)
    z = np.sqrt(2.0) * x
    w = w / np.sqrt(np.pi)
    return z, w / w.sum()


@dataclass(frozen=True)
class TreeLevel:
    """All nodes at one time level, stored columnwise.

    ``parents[i]`` indexes into the previous level (-1 at the root),
    ``increments[i]`` is the edge increment from the parent, ``weights[i]``
    the conditional probability of that edge, ``prob[i]`` the unconditional
    node probability.  A node's W is its increments' sum (``level_increments``).
    """

    parents: Array
    increments: Array
    weights: Array
    prob: Array

    @property
    def n_nodes(self) -> int:
        return len(self.parents)


@dataclass(frozen=True)
class WienerTree:
    dim_w: int
    n_steps: int
    branching: int
    horizon: float
    dt: float
    levels: list[TreeLevel]

    @property
    def n_children(self) -> int:
        return self.branching ** self.dim_w if self.branching > 1 else 1

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
        lev, idx = level, index
        while lev > 0:
            incs[lev - 1] = self.levels[lev].increments[idx]
            idx = int(self.levels[lev].parents[idx])
            lev -= 1
        return PathHistory(level * self.dt, self.dt, incs, incs.sum(axis=0))

    def level_increments(self, level: int) -> Array:
        """Every node's increments, ``(n_level, level, dim_w)``, in one parent walk."""
        idx = np.arange(self.levels[level].n_nodes)
        incs = np.zeros((len(idx), level, self.dim_w))
        for lev in range(level, 0, -1):
            incs[:, lev - 1] = self.levels[lev].increments[idx]
            idx = self.levels[lev].parents[idx]
        return incs

    def expectations(self, level: int, values) -> tuple[Array, Array]:
        """Exact ``E[values | node]`` and the discrete martingale-representation
        coefficient ``E[values dW | node] / dt`` for every node of ``level``.

        ``values`` holds one row per node of ``level + 1``, in tree order, of
        any trailing shape; the results are ``(n_level, ...)`` and
        ``(n_level, dim_w, ...)``.  For affine child data the coefficient is
        the representation coefficient exactly.
        """
        if level >= self.n_steps:
            raise ValueError("terminal nodes have no children")
        n, c, nxt = self.levels[level].n_nodes, self.n_children, self.levels[level + 1]
        vals = np.asarray(values)
        if vals.shape[0] != nxt.n_nodes:
            raise ValueError(f"expected {nxt.n_nodes} child values, got {vals.shape[0]}")
        w, vals = nxt.weights.reshape(n, c), vals.reshape((n, c) + vals.shape[1:])
        dw = nxt.increments.reshape(n, c, self.dim_w)
        return (np.einsum("nc,nc...->n...", w, vals),
                np.einsum("nc,nck,nc...->nk...", w, dw, vals) / self.dt)


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


def _grow(dim_w: int, n_steps: int, branching: int, horizon: float,
          pattern: tuple[Array, Array]) -> WienerTree:
    """The tree whose every node spawns one child per row of the
    ``(increments (C, dim_w), weights (C,))`` pattern."""
    pattern_inc, pattern_w = pattern
    c = len(pattern_w)
    levels = [TreeLevel(
        parents=np.array([-1]),
        increments=np.zeros((1, dim_w)),
        weights=np.ones(1),
        prob=np.ones(1),
    )]
    for _ in range(n_steps):
        prev = levels[-1]
        n_prev = prev.n_nodes
        parents = np.repeat(np.arange(n_prev), c)
        increments = np.tile(pattern_inc, (n_prev, 1))
        weights = np.tile(pattern_w, n_prev)
        prob = np.repeat(prev.prob, c) * weights
        levels.append(TreeLevel(parents, increments, weights, prob))
    return WienerTree(dim_w, n_steps, branching, horizon, horizon / n_steps, levels)


def build_tree(dim_w: int, n_steps: int, branching: int, horizon: float) -> WienerTree:
    """Non-recombining Gauss-Hermite tree over [0, horizon] with n_steps levels."""
    if branching not in ALLOWED_BRANCHING:
        raise ValueError(f"branching must be one of {ALLOWED_BRANCHING}, got {branching}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    c = branching ** dim_w
    nodes = (c ** (n_steps + 1) - 1) // (c - 1)
    # parents, weights and prob, plus dim_w columns of increments
    check_bytes(nodes * (3 + dim_w) * 8, f"a tree of {n_steps} steps")
    return _grow(dim_w, n_steps, branching, horizon,
                 _branch_pattern(dim_w, branching, horizon / n_steps))


def build_chain(dim_w: int, n_steps: int, horizon: float) -> WienerTree:
    """Single-path degenerate tree for deterministic scenarios (see module doc):
    one child per node, with a zero increment and unit weight.

    Every level after the root is the same one node, so the chain holds one
    ``TreeLevel`` object for all of them: a level costs a list slot.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    root, level = _grow(dim_w, 1, 1, horizon, (np.zeros((1, dim_w)), np.ones(1))).levels
    return WienerTree(dim_w, n_steps, 1, horizon, horizon / n_steps,
                      [root] + [level] * n_steps)


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

    def level_increments(self, step: int) -> Array:
        """Every path's first ``step`` increments, ``(n_paths, step, dim_w)``."""
        return self.increments[:, :step, :]

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
