"""Backward solvers on the discrete Wiener filtration.

The core recursion computes, per node and going backward in time,

    q^k  = E[ p_next dW^k | node ] / dt                  (martingale coefficient)
    p    = E[p_next|node] + dt ( theta L p + (1-theta) L E[p_next|node]
                                 + sum_k M^k q^k + F_hat )

so the implicit step solves (I - theta dt L) p = rhs.  q is computed first,
from the children of p, which is the standard well-posed explicit treatment of
the noise coupling.

The recursion runs a whole tree level at a time.  ``LevelFields`` supplies a
level's source as a stacked array and its operators as one
``LevelOperators``: matrix rows plus each node's row, with one shared row
for deterministic fields, one per distinct Wiener state for Markov fields and
one per node otherwise.  ``_level_step`` applies a shared row's inverse
(I - theta dt L)^-1 to the whole level as one matrix product, and the
provider keeps that inverse for the whole solve when the row is t-free; it
solves the level with one stacked solve when every node has its own row, and
otherwise with one factorisation per row for all of its nodes.  The tree
solver, the residuals, the regression solver, the freezing iteration and the
audits all run on this one step.  The regression's conditional expectations
are projections on its design, one real QR per step (``_fit``); with a shared
row the step runs on the fitted coefficients, not on the paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, StructuralError, check_bytes
from .scenario import PathHistory, Scenario, _all_markov
from .space import SpatialField, SpectralBasis, assemble_L, assemble_M
from .wiener import (PathEnsemble, WienerTree, conditional_expectation,
                     martingale_coefficient)

Array = np.ndarray


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping knobs: the theta weighting of the implicit step."""

    theta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise StructuralError("theta must lie in [0, 1]")


@dataclass
class AdaptedField:
    """A field attached to every node of the tree: one coefficient row per node.

    ``levels[k]`` has shape (n_nodes_k, n_modes) for scalar fields and
    (n_nodes_k, dim_w, n_modes) for noise coefficients.
    """

    tree: WienerTree
    basis: SpectralBasis
    levels: list[Array]

    def _node_norm_sq(self, level: int, order=0) -> Array:
        """||.||_order^2 at every node of the level, noise components summed."""
        sq = self.basis.norm_sq(self.levels[level], order)
        return sq if sq.ndim == 1 else sq.sum(axis=-1)

    def level_expected_norm_sq(self, level: int, order=0) -> float:
        """E ||field(t_level)||_order^2 over the tree measure."""
        return _expectation(self.tree.levels[level].prob,
                            self._node_norm_sq(level, order))

    def time_norm_sq(self, order=0) -> float:
        """Left-rule discrete E int_0^T ||.||_order^2 dt over levels 0..N-1."""
        n = min(len(self.levels), self.tree.n_steps)
        return float(self.tree.dt * sum(
            self.level_expected_norm_sq(k, order) for k in range(n)))

    def e_sup_norm_sq(self, order=0) -> float:
        """E sup_t ||.||_order^2: pathwise running max, averaged over leaves."""
        run = self._node_norm_sq(0, order)
        for k in range(1, len(self.levels)):
            here = self._node_norm_sq(k, order)
            run = np.maximum(run[self.tree.levels[k].parents], here)
        prob = self.tree.levels[len(self.levels) - 1].prob
        return float(np.sum(prob * run))

    def sup_e_norm_sq(self, order=0) -> float:
        return max(self.level_expected_norm_sq(k, order)
                   for k in range(len(self.levels)))


def _expectation(prob: Array, values: Array) -> float:
    """sum_i prob_i values_i over a level, added one node after the other.

    A pairwise or BLAS sum would move the last digits of every audit.
    """
    return float(np.cumsum(prob * values)[-1])


@dataclass
class SolutionPair:
    """Solution field p (levels 0..N) and noise coefficient q (levels 0..N-1)."""

    p: AdaptedField
    q: AdaptedField

    @property
    def tree(self) -> WienerTree:
        return self.p.tree

    @property
    def basis(self) -> SpectralBasis:
        return self.p.basis

    def p0(self) -> SpatialField:
        return SpatialField(self.basis, self.p.levels[0][0])


def mixed_norm_sq(pair: SolutionPair, p_order=2, q_order=1) -> float:
    """Squared mixed norm |||p|||_{p_order}^2 + |||q|||_{q_order}^2."""
    return pair.p.time_norm_sq(p_order) + pair.q.time_norm_sq(q_order)


def pair_difference(x: SolutionPair, y: SolutionPair) -> SolutionPair:
    p = AdaptedField(x.tree, x.basis, [u - v for u, v in zip(x.p.levels, y.p.levels)])
    q = AdaptedField(x.tree, x.basis, [u - v for u, v in zip(x.q.levels, y.q.levels)])
    return SolutionPair(p, q)


# -- the level-array contract ------------------------------------------------
#
# A level's source, and the terminal datum at the leaves, are (k, m): ``k`` is
# 1 when the field is deterministic (one row shared by the level) and the
# level's node count when it is adapted.  A level's operators are one
# ``LevelOperators``: ``k`` rows and ``index``, the (n_level,) row of every
# node.  The engine applies and inverts or factors each row for all of its
# nodes at once and never copies a row to every node.

@dataclass(frozen=True)
class LevelOperators:
    """A level's operators as matrix rows plus each node's row (``index``).

    ``L`` is (k, m, m) and ``Ms`` is (k, dim_w, m, m).  ``index`` is None only
    when one row (k = 1) is shared by the level.  With as many rows as nodes,
    each node has its own row and ``index`` is a permutation.  ``keep``, set
    only on a shared row that holds for every level of a solve, keeps an
    array made from the row across levels: ``keep(name, make)`` returns the
    array kept under ``name``, made by ``make()`` on the first call.
    """

    L: Array
    Ms: Array
    index: Array | None = None
    keep: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        k, m = len(self.L), self.L.shape[-1]
        if self.L.shape != (k, m, m) or self.Ms.shape[:1] + self.Ms.shape[2:] != (k, m, m):
            raise StructuralError(
                f"operator rows must be L (k, m, m) and Ms (k, dim_w, m, m), "
                f"got L {self.L.shape} and Ms {self.Ms.shape}")
        if self.index is None and k != 1:
            raise StructuralError(f"{k} operator rows need each node's row (index)")


def _row_nodes(ops: LevelOperators) -> list | None:
    """``(rows, nodes)`` pairs, the slice ``rows`` of ``ops`` acting on ``nodes``:
    each node's own row on the nodes in row order (a slice when that is level
    order), and otherwise each row on its nodes in level order.  A shared row
    acts on every node and has no pairs (None)."""
    index = ops.index
    if index is None:
        return None
    if len(ops.L) == len(index):
        in_order = np.array_equal(index, np.arange(len(index)))
        return [(slice(None), slice(None) if in_order else np.argsort(index))]
    order = np.argsort(index, kind="stable")
    cuts = np.flatnonzero(np.diff(index[order])) + 1
    return [(slice(index[n[0]], index[n[0]] + 1), n) for n in np.split(order, cuts)]


def _by_row(groups: list, part, shape: tuple) -> Array:
    """``part(rows, nodes)`` of every pair of ``groups``, put at its nodes; a
    part on a slice of nodes is the whole level and is returned as it is."""
    if isinstance(groups[0][1], slice):
        return part(*groups[0])
    out = np.empty(shape, complex)  # the engine's levels are complex
    for rows, nodes in groups:
        out[nodes] = part(rows, nodes)
    return out


def _apply(op: Array, vec: Array, groups: list | None) -> Array:
    """Level-wise action of ``op`` (matrix rows) on ``vec`` (n, m) over
    ``groups`` (``_row_nodes``): one matrix product for a shared row,
    otherwise one matvec per node."""
    if groups is None:
        return vec @ op[0].T
    return _by_row(groups, lambda rows, nodes: (op[rows] @ vec[nodes][..., None])[..., 0],
                   vec.shape)


def _generator(ops: LevelOperators, p: Array, q: Array, f: Array) -> Array:
    """Level-wise ``L p + sum_k M^k q^k + F``, on the contract above."""
    groups = _row_nodes(ops)
    out = _apply(ops.L, p, groups) + f
    for k in range(q.shape[1]):
        out = out + _apply(ops.Ms[:, k], q[:, k], groups)
    return out


def _distinct_rows(w: Array) -> tuple[Array, Array]:
    """First index of each distinct row of ``w`` and every row's group.

    Rows are compared by their bytes: ``-0.0`` and ``0.0`` differ.
    """
    _, first, inverse = np.unique(w.view(np.uint64), axis=0, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


_CACHE_BYTES = 1 << 24  # bytes of rows one provider keeps across levels


class _RowCache(dict):
    """Rows of named maps, by (map name, owner id, level, state bytes); the
    level is ``None`` for maps over t-free fields.

    An entry holds its owner, so the id cannot name another object while the
    entry can be hit.  A row that would take the total past ``_CACHE_BYTES``
    is returned but not kept, so its map runs again at every read.
    """

    nbytes = 0

    def row(self, name, owner, level, state, make) -> Array:
        slot = (name, id(owner), level, state)
        if slot in self:
            return self[slot][1]
        row = make()
        if self.nbytes + row.nbytes <= _CACHE_BYTES:
            self[slot] = (owner, row)
            self.nbytes += row.nbytes
        return row


def _check_inputs(scenario: Scenario, filtration, basis: SpectralBasis) -> None:
    """Refuse a filtration (a tree or an ensemble) or a basis made for another
    scenario.  The lengths may differ by 1e-12: a file's ``L = 3.14159265358979``
    is not ``np.pi``."""
    kind = type(filtration).__name__
    if filtration.dim_w != scenario.dim_w:
        raise StructuralError(f"{kind} and scenario disagree on dim_w")
    if abs(filtration.horizon - scenario.horizon) > 1e-12:
        raise StructuralError(f"{kind} and scenario disagree on the horizon")
    if basis.dim_x != scenario.dim_x:
        raise StructuralError("basis and scenario disagree on dim_x")
    if abs(basis.domain_halfwidth - scenario.domain_halfwidth) > 1e-12:
        raise StructuralError("basis and scenario disagree on the domain halfwidth")


class LevelFields:
    """A scenario's terminal, source and operators, one whole level at a time.

    ``filtration`` is a ``WienerTree`` or a ``PathEnsemble``: anything with
    ``dt`` and ``level_increments(level)``.  Every field read goes through
    ``level_rows``, which evaluates a map over deterministic fields once per
    level (``k = 1``) and over adapted fields once per group of the level's
    nodes (``groups``).  The groups are kept for the current level only.  The
    terminal, the source and the operators are named maps, whose rows the
    provider keeps (``level_rows``): a time-invariant L is assembled once per
    solve, not once per level, and a map over t-dependent fields runs once
    per level and state however often a caller reads the level again.
    ``operators`` returns its rows with each node's row, and a t-free shared
    row with the slot that keeps its step inverse in the same rows; the
    terminal and the source are expanded to every node (``level_map``).  A filtration or basis
    made for another scenario is refused (``_check_inputs``).
    """

    def __init__(self, scenario, filtration, basis: SpectralBasis):
        _check_inputs(scenario, filtration, basis)
        self.scenario = scenario
        self.filtration = filtration
        self.basis = basis
        self._level = None
        self._groups: dict = {}
        self._rows = _RowCache()

    def select(self, rows: slice) -> "LevelFields":
        """The provider of the paths ``rows`` of an ensemble; it shares this
        provider's rows, and its byte bound."""
        out = LevelFields(self.scenario, self.filtration.select(rows), self.basis)
        out._rows = self._rows
        return out

    def groups(self, level: int, markov: bool) -> tuple[list, Array]:
        """One history per group of the level's nodes and each node's group.

        With ``markov`` the groups are the distinct Wiener states ``w`` of the
        level, told apart by their bytes, not by float comparison, so ``-0.0``
        and ``0.0`` stay apart and a Markov field sees exactly the bits it
        would see at each of the group's nodes.  Otherwise every node is its
        own group, in level order.
        """
        if level != self._level:
            self._level, self._groups = level, {}
        if markov not in self._groups:
            incs = self.filtration.level_increments(level)
            w = incs.sum(axis=1)  # the same sum, in the same order, as each history.w
            first, inverse = _distinct_rows(w) if markov else (np.arange(len(w)),) * 2
            t, dt = level * self.filtration.dt, self.filtration.dt
            self._groups[markov] = ([PathHistory(t, dt, incs[i], w[i]) for i in first],
                                    inverse)
        return self._groups[markov]

    def level_rows(self, level: int, fields, fn, key=None) -> tuple[Array, Array | None]:
        """``fn(t, history)`` once per group of the level: the rows and
        ``index``, each node's row, which is ``None`` when one row is shared
        by the level.

        ``fields`` are the coefficient fields ``fn`` reads: ``fn`` runs once
        when all are deterministic, and otherwise once per group of
        ``groups(level, markov)``, Markov when all are.

        ``key``, a ``(name, owner)`` pair, names the map: besides ``fields``,
        ``fn`` reads only ``owner``, and it reads ``t`` only through
        ``fields``.  A named map over deterministic or Markov fields keeps its
        rows for the provider's lifetime, keyed by the bytes of ``w``, and by
        the level unless every field is t-free: over a solve a t-free map runs
        once when the fields are deterministic and once per distinct Wiener
        state of all levels when they are Markov, and a second read of a level
        runs no map.  The rows are bit-equal to those of a fresh evaluation.
        """
        fields = tuple(fields)
        markov = _all_markov(*fields)
        if all(f.is_deterministic for f in fields):
            hists, inverse = [None], None
        else:
            hists, inverse = self.groups(level, markov)
        t = level * self.filtration.dt
        keep = key is not None and markov
        when = None if all(f.t_free for f in fields) else level
        out = None
        for i, h in enumerate(hists):
            if keep:  # look the row up by state (and level)
                row = self._rows.row(*key, when, None if h is None else h.w.tobytes(),
                                     lambda: np.asarray(fn(t, h)))
            else:
                row = np.asarray(fn(t, h))
            if out is None:  # filled in place: no list of per-node rows
                out = np.empty((len(hists),) + row.shape, row.dtype)
            out[i] = row
        return out, inverse

    def level_map(self, level: int, fields, fn, key=None) -> Array:
        """``level_rows`` stacked over the level: (1, ...) or (n_level, ...)."""
        out, index = self.level_rows(level, fields, fn, key)
        return out if index is None else out[index]

    def _projected(self, field_, level: int, t=None) -> Array:
        X, project = self.basis.grid_points, self.basis.project
        return self.level_map(level, [field_], lambda s, h: project(
            field_.evaluate(s if t is None else t, X, h)), ("projected", field_))

    def terminal(self) -> Array:
        return self._projected(self.scenario.phi, self.filtration.n_steps,
                               self.scenario.horizon)

    def source(self, level: int) -> Array:
        return self._projected(self.scenario.F, level)

    def operators(self, level: int, scenario=None) -> LevelOperators:
        """Assembled (L, Ms) of ``scenario`` (default: the provider's own):
        one row per group of the level and each node's row, their bytes
        checked before the first is assembled."""
        scn = scenario if scenario is not None else self.scenario
        coeffs, basis = scn.coefficient_fields().values(), self.basis
        rows = 1 if scn.coefficients_deterministic else len(
            self.groups(level, _all_markov(*coeffs))[0])
        # L, the M^k, and the step's I - theta dt L with its temporary
        check_bytes(rows * (3 + scn.dim_w) * basis.n_modes ** 2 * 16,
                    f"the operators of level {level}")
        L, index = self.level_rows(level, coeffs, lambda t, h: assemble_L(scn, t, h, basis),
                                   ("L", scn))
        Ms, _ = self.level_rows(level, coeffs, lambda t, h: assemble_M(scn, t, h, basis),
                                ("M", scn))
        keep = None
        if index is None and all(f.t_free for f in coeffs):
            # one row for every level: what the step makes of it is kept too
            def keep(name, make):
                return self._rows.row(name, scn, None, None, make)
        return LevelOperators(L, Ms, index, keep)


# -- the backward engine ------------------------------------------------------

def _level_step(ops: LevelOperators, Ep, q, fhat, dt, theta, level, first_node=0,
                paths=None):
    """One implicit theta step for every node of a level (contract above).

    A shared row's matrix is inverted once and the level is one matrix
    product with the inverse; the inverse and its largest absolute row sum,
    which bounds every node's amplification, are kept across levels through
    ``ops.keep`` by (theta, dt) when the row has that slot.  When each node
    has its own row the level is one stacked solve; otherwise each row's
    matrix is factored once, for all of its nodes.

    ``paths``, a real (n, k) matrix, says that the first k rows of ``Ep``,
    ``q`` and ``fhat`` are coefficients of n nodes' values in its columns and
    the rest is one row added to every node or a row per node: the step is
    linear, so it steps those rows and returns the n nodes'
    ``paths @ out[:k] + out[k:]``.  Errors name the node as ``first_node``
    plus its place among the nodes, never a row.
    """
    L, Ms, index = ops.L, ops.Ms, ops.index
    groups = _row_nodes(ops)
    rhs = Ep + dt * fhat
    if theta < 1.0:
        rhs += dt * (1.0 - theta) * _apply(L, Ep, groups)
    for k in range(q.shape[1]):
        rhs += dt * _apply(Ms[:, k], q[:, k], groups)

    def matrix():  # I - theta dt L of every row; a kept inverse needs none
        return np.eye(L.shape[-1]) - theta * dt * L

    def invert():
        return np.linalg.inv(matrix()[0])

    def row_sum():  # max_i sum_j |inverse_ij|: no node's amplification exceeds it
        return np.abs(inverse).sum(axis=-1).max()

    def solve(rows, nodes):  # a row per node: one stacked solve; else one per row
        if rows == slice(None):
            return np.linalg.solve(A, rhs[nodes][..., None])[..., 0]
        return np.linalg.solve(A[rows.start], rhs[nodes].T).T

    bound = np.inf  # of the amplification, for a shared row
    try:
        if groups is None:
            keep = ops.keep or (lambda name, make: make())
            inverse = keep(("inverse", theta, dt), invert)
            bound = keep(("bound", theta, dt), row_sum)
            out = rhs @ inverse.T
        else:
            A = matrix()
            out = _by_row(groups, solve, rhs.shape)
    except np.linalg.LinAlgError as exc:
        # LAPACK stops on an exactly zero pivot, which makes the determinant 0;
        # the first such node in level order is named, whatever its row
        singular = np.linalg.det(matrix()) == 0
        node = first_node + int(np.argmax(singular if index is None else singular[index]))
        raise NumericError(
            f"singular implicit step at level {level}, node {node}: {exc}") from exc

    def at_nodes(rows):  # the nodes' values of the step's rows (``paths``)
        if paths is None:
            return rows
        k = paths.shape[1]
        return _combine(paths, rows[:k]) + rows[k:]

    out = at_nodes(out)

    def amplification(nodes):
        return np.max(np.abs(out[nodes]), axis=-1) / (
            np.max(np.abs(at_nodes(rhs)[nodes]), axis=-1) + 1e-300)

    # a dissipative implicit step never amplifies like this; a near-zero
    # pivot that LAPACK lets through does.  A bound of 1e11 or less keeps
    # every node below 1e12, rounding included, so no node is measured
    bad = ~np.all(np.isfinite(out), axis=-1)
    if not bound <= 1e11:
        bad |= amplification(slice(None)) > 1e12
    if bad.any():
        node = int(np.argmax(bad))
        raise NumericError(f"singular implicit step at level {level}, node "
                           f"{first_node + node} (amplification {amplification(node):.1e})")
    return out


def backward_solve(tree: WienerTree, basis: SpectralBasis, scheme: SchemeConfig,
                   terminal: Array, operators, source) -> SolutionPair:
    """Run the backward recursion level by level on the level-array contract.

    terminal          -> (k, m) spectral vectors at the leaves
    operators(level)  -> the level's ``LevelOperators``
    source(level)     -> (k, m) left-endpoint source
    """
    N, dt, theta = tree.n_steps, tree.dt, scheme.theta

    p_levels: list[Array] = [None] * (N + 1)
    q_levels: list[Array] = [None] * N
    p_levels[N] = np.array(
        np.broadcast_to(terminal, (tree.levels[N].n_nodes, basis.n_modes)), dtype=complex)

    for level in range(N - 1, -1, -1):
        Ep = conditional_expectation(tree, level, p_levels[level + 1])
        q = martingale_coefficient(tree, level, p_levels[level + 1])
        p_levels[level] = _level_step(operators(level), Ep, q, source(level), dt, theta, level)
        q_levels[level] = q

    return SolutionPair(AdaptedField(tree, basis, p_levels),
                        AdaptedField(tree, basis, q_levels))


def solve_tree(scenario: Scenario, tree: WienerTree, basis: SpectralBasis,
               scheme: SchemeConfig | None = None) -> SolutionPair:
    """Backward theta-scheme solve of the scenario on a Wiener tree.

    The chain tree (branching 1) is only meaningful for deterministic
    scenarios, where the recursion collapses to the deterministic parabolic
    marcher and q vanishes identically.
    """
    scheme = scheme or SchemeConfig()
    fields = LevelFields(scenario, tree, basis)
    if tree.is_chain and not scenario.is_deterministic:
        raise StructuralError("chain trees carry no randomness; scenario is adapted")
    check_bytes(tree.n_nodes * basis.n_modes * (1 + tree.dim_w) * 16,
                f"p and q on {tree.n_nodes} nodes")
    return backward_solve(tree, basis, scheme, fields.terminal(), fields.operators,
                          fields.source)


# -- residuals ----------------------------------------------------------------

def _defects(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
             basis: SpectralBasis, scheme: SchemeConfig | None):
    """Per level, the (n_level, m) defect of the scheme's one-step identity

    ``p - E[p_next] - dt (theta L p + (1-theta) L E[p_next] + M q + F)``,
    with freshly assembled operators and source.
    """
    theta = (scheme or SchemeConfig()).theta
    fields = LevelFields(scenario, tree, basis)
    for level in range(tree.n_steps):
        p, q = solution.p.levels[level], solution.q.levels[level]
        Ep = conditional_expectation(tree, level, solution.p.levels[level + 1])
        drift = _generator(fields.operators(level), theta * p + (1.0 - theta) * Ep, q,
                           fields.source(level))
        yield p - Ep - tree.dt * drift


def strong_residual(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
                    basis: SpectralBasis, scheme: SchemeConfig | None = None) -> list[Array]:
    """Per-node L2 norm of the scheme's own one-step identity.

    For an exact solver output this is round-off.
    """
    return [basis.norm(d, 0) for d in _defects(solution, scenario, tree, basis, scheme)]


def weak_residual(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
                  basis: SpectralBasis, test_field: SpatialField,
                  scheme: SchemeConfig | None = None) -> list[Array]:
    """Signed defect of the one-step identity paired against a test field.

    The pairing uses the divergence-form operators (the integration by parts
    is exact in the spectral representation), so for divergence-form or
    constant-coefficient scenarios this matches the strong identity to
    round-off; test fields orthogonal to the active modes give exactly zero.
    """
    eta = np.asarray(test_field.coeffs, dtype=complex)
    div_scn = scenario.with_fields(form="divergence")
    return [np.real(np.sum(np.conj(eta) * d, axis=-1))
            for d in _defects(solution, div_scn, tree, basis, scheme)]


# -- least-squares Monte Carlo ------------------------------------------------

@dataclass
class RegressionSolution:
    """Path means of the regression solve: p at t=0 and q at every step."""

    basis: SpectralBasis
    p0_mean: Array      # (n_modes,)
    q_means: Array      # (n_steps, dim_w, n_modes)

    def p0(self) -> SpatialField:
        return SpatialField(self.basis, self.p0_mean)


def _monomial_features(states: Array, size: int) -> Array:
    """First ``size`` monomials of the state, ordered by (total degree, lex)."""
    from itertools import combinations_with_replacement, count
    n, dw = states.shape
    cols = []
    for deg in count():
        for combo in combinations_with_replacement(range(dw), deg):
            col = np.ones(n)
            for j in combo:
                col = col * states[:, j]
            cols.append(col)
            if len(cols) == size:
                return np.stack(cols, axis=1)


def _fit(design: Array | None, targets: Array, step: int) -> tuple[Array | None, Array]:
    """The real QR factor Q (n, k) of the design and the complex coefficients
    C = Q^T targets (k, ...) from one real QR, on the real view of the
    targets: the fitted values are Q C (``_combine``).  With no design (t=0,
    where every path has one state) Q is None and C is the targets' mean.

    The design is rank-deficient, an error, when it has fewer rows (paths)
    than columns, or when a |R_ii| is at most max(n, k) eps times the largest.
    """
    if design is None:
        return None, targets.mean(axis=0, keepdims=True)
    n, k = design.shape
    Q, R = np.linalg.qr(design)
    diag = np.abs(np.diag(R))
    if n < k or diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
        raise NumericError(f"rank-deficient regression design at time step {step}")
    real = np.ascontiguousarray(targets).reshape(n, -1).view(float)
    return Q, (Q.T @ real).view(complex).reshape((k,) + targets.shape[1:])


def _combine(Q: Array, C: Array) -> Array:
    """Q C for a real (n, k) Q and complex (k, ...) C, as one real product."""
    real = np.ascontiguousarray(C).reshape(len(C), -1).view(float)
    return (Q @ real).view(complex).reshape((len(Q),) + C.shape[1:])


_BLOCK_ENTRIES = 1 << 18  # complex entries per stack of per-path operator matrices


def solve_regression(scenario: Scenario, ensemble: PathEnsemble, basis: SpectralBasis,
                     regression_basis_size: int = 4,
                     scheme: SchemeConfig | None = None) -> RegressionSolution:
    """Least-squares Monte Carlo version of the backward recursion.

    Conditional expectations are cross-sectional regressions on monomials of
    the current Wiener state; the noise coefficient regresses
    ``p_next dW^k / dt``.  ``p_next`` and its ``dim_w`` products share the
    design, so each step fits the stacked targets with one real QR of it.

    With deterministic coefficients the step acts on the modes alone, so it
    commutes with the fit: it steps the k fitted coefficient rows with the
    source rows, and p is ``Q`` times the stepped coefficients plus the
    stepped source.  Per-path operator rows step the fitted values of every
    path, one block of paths at a time.  Deterministic scenarios reproduce
    the chain solver because the regression of a constant target is that
    constant.
    """
    scheme = scheme or SchemeConfig()
    if regression_basis_size < 1:
        raise StructuralError("regression_basis_size must be >= 1")
    N, dt, theta = ensemble.n_steps, ensemble.dt, scheme.theta
    n_paths, nm, dw = ensemble.n_paths, basis.n_modes, ensemble.dim_w
    fields = LevelFields(scenario, ensemble, basis)
    # per-path matrices are assembled and solved one block of paths at a time,
    # so a step holds about _BLOCK_ENTRIES entries per stack, not n_paths m^2
    size = max(1, _BLOCK_ENTRIES // nm ** 2)
    blocks = None if scenario.coefficients_deterministic else [
        (sl, fields.select(sl)) for sl in (slice(j, j + size)
                                           for j in range(0, n_paths, size))]

    p = np.array(np.broadcast_to(fields.terminal(), (n_paths, nm)), dtype=complex)
    q_means = np.empty((N, dw, nm), dtype=complex)
    w = np.cumsum(ensemble.increments, axis=1)  # w[:, s - 1] is W at step s

    for step in range(N - 1, -1, -1):
        design = None if step == 0 else _monomial_features(w[:, step - 1],
                                                           regression_basis_size)
        dW = ensemble.increments[:, step, :]
        targets = np.concatenate([p[:, None], p[:, None] * (dW / dt)[:, :, None]], axis=1)
        Q, C = _fit(design, targets, step)
        fhat = fields.source(step)
        if blocks is None:  # one shared row: step C and the source rows
            Q = np.ones((n_paths, 1)) if Q is None else Q
            rows = np.concatenate([C, np.zeros((len(fhat),) + C.shape[1:], complex)])
            fhat = np.concatenate([np.zeros((len(C), nm)), fhat])
            p = _level_step(fields.operators(step), rows[:, 0], rows[:, 1:], fhat, dt,
                            theta, step, paths=Q)
            q_means[step] = np.tensordot(Q.mean(axis=0), C[:, 1:], axes=1)
            continue
        fitted = (np.broadcast_to(C, targets.shape).copy() if Q is None
                  else _combine(Q, C))
        Ep, q = fitted[:, 0], fitted[:, 1:]
        q_means[step] = q.mean(axis=0)
        fhat = np.broadcast_to(fhat, (n_paths, nm))
        p = np.concatenate([
            _level_step(blk.operators(step), Ep[sl], q[sl], fhat[sl], dt, theta, step,
                        sl.start)
            for sl, blk in blocks])

    return RegressionSolution(basis, p.mean(axis=0), q_means)
