"""Backward solvers on the discrete Wiener filtration.

The core recursion computes, per node and going backward in time,

    q^k  = E[ p_next dW^k | node ] / dt                  (martingale coefficient)
    p    = E[p_next|node] + dt ( theta L p + (1-theta) L E[p_next|node]
                                 + sum_k M^k q^k + F_hat )

so the implicit step solves (I - theta dt L) p = rhs.  q is computed first,
from the children of p, which is the standard well-posed explicit treatment of
the noise coupling.

One loop, ``_backward``, runs the recursion a whole level at a time on any
filtration, which supplies its ``expect`` step: the exact child sums of a
tree (``WienerTree.expectations``), or the projections of a path ensemble on
its regression design, one QR per step (``_fit``).  ``LevelFields``
supplies a level's source as a stacked array and its operators as one
``LevelOperators``: matrix rows plus each node's row, with one shared row
for deterministic fields, one per distinct Wiener state for Markov fields and
one per node otherwise.  A Markov level is read in one go: every field by
its one read over the level's distinct Wiener values, and the operators of
all of them by one stacked assembly.  ``_level_step`` inverts
I - theta dt L of every row at once and applies each inverse to its nodes
as it applies L: a shared row's as one matrix product over the level.  A
``LevelOperators`` keeps its inverse and node groups for its next use (a
t-free shared row is one object for the whole solve).
Only the nodes of a row whose inverse does not bound their amplification
are measured.  With a shared row the regression keeps p at its paths as
coefficient rows of the fit's Q plus source rows, and steps the rows, not
the paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, StructuralError, check_bytes
from .scenario import PathHistory, Scenario, reads_of
from .space import SpatialField, SpectralBasis, assemble_L, assemble_M
from .wiener import PathEnsemble, WienerTree

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
    (n_nodes_k, dim_w, n_modes) for noise coefficients.  Its levels are not
    to be edited once a norm is read: the field keeps the norms it has read.
    """

    tree: WienerTree
    basis: SpectralBasis
    levels: list[Array]
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _node_norms_sq(self, order=0, start=0, stop=None) -> list[Array]:
        """||.||_order^2 at every node of levels ``start``..``stop``-1 (to the
        last by default), noise components summed, as read-only arrays.

        The field keeps each (order, level)'s node floats (its levels never
        change), so a level is reduced once per field and order.  A level
        that is one row broadcast to its nodes (first stride 0) reduces that
        row alone.  The missing levels are stacked up to ``_NORM_ENTRIES``
        entries (a larger level alone), and each stack takes one weight and
        one row reduction: a row's sum is the same in a stack as alone."""
        ks, memo = range(len(self.levels))[start:stop], self._norms
        stacks, size = [], _NORM_ENTRIES
        for k in (k for k in ks if (order, k) not in memo):
            rows = self.levels[k][:1] if self.levels[k].strides[0] == 0 else self.levels[k]
            if size + rows.size > _NORM_ENTRIES:
                stacks, size = stacks + [{}], 0
            stacks[-1][k], size = rows, size + rows.size
        for stack in stacks:
            run = list(stack.values())
            sq = self.basis.norm_sq(np.concatenate(run) if len(run) > 1 else run[0], order)
            sq = sq if sq.ndim == 1 else sq.sum(axis=-1)
            for k, part in zip(stack, np.split(sq, np.cumsum(list(map(len, run[:-1]))))):
                memo[order, k] = np.broadcast_to(part, len(self.levels[k]))
        return [memo[order, k] for k in ks]

    def expected_norms_sq(self, order=0, start=0, stop=None) -> list[float]:
        """E ||field(t_k)||_order^2 over the tree measure, for the levels k
        from ``start`` to ``stop``-1 (to the last by default)."""
        return [_expectation(self.tree.levels[k].prob, sq)
                for k, sq in enumerate(self._node_norms_sq(order, start, stop), start)]

    def level_expected_norm_sq(self, level: int, order=0) -> float:
        """E ||field(t_level)||_order^2 over the tree measure."""
        return self.expected_norms_sq(order, level, level + 1)[0]

    def time_norm_sq(self, order=0) -> float:
        """Left-rule discrete E int_0^T ||.||_order^2 dt over levels 0..N-1."""
        n = min(len(self.levels), self.tree.n_steps)
        return float(self.tree.dt * sum(self.expected_norms_sq(order, 0, n)))

    def e_sup_norm_sq(self, order=0) -> float:
        """E sup_t ||.||_order^2: pathwise running max, averaged over leaves."""
        sq = self._node_norms_sq(order)
        run = sq[0]
        for k in range(1, len(sq)):
            run = np.maximum(np.repeat(run, self.tree.n_children), sq[k])
        return _expectation(self.tree.levels[len(sq) - 1].prob, run)

    def sup_e_norm_sq(self, order=0) -> float:
        return max(self.expected_norms_sq(order))


# entries of the level rows one norm stack takes: small levels share a stack,
# and a stack stays cache-sized (whole-tree stacks of 2^18 entries made the
# audits of a 9,841-node tree half again slower than one level at a time)
_NORM_ENTRIES = 1 << 14


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
# node.  The engine inverts every row at once, applies each row to all of
# its nodes at once and never copies a row to every node.

@dataclass(frozen=True)
class LevelOperators:
    """A level's operators as matrix rows plus each node's row (``index``).

    ``L`` is (k, m, m) and ``Ms`` is (k, dim_w, m, m).  ``index`` is None only
    when one row (k = 1) is shared by the level.  With as many rows as nodes,
    each node has its own row and ``index`` is a permutation.  ``kept`` is
    the step's memo: ``_level_step`` fills it with its ``(theta, dt, inverse,
    bound)`` and reads it whenever the same object comes back with the same
    theta and dt, as ``LevelFields.operators`` hands it out again under its
    keep rule.  ``groups`` is made once per object as well.
    """

    L: Array
    Ms: Array
    index: Array | None = None
    kept: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        k, m = len(self.L), self.L.shape[-1]
        if self.L.shape != (k, m, m) or self.Ms.shape[:1] + self.Ms.shape[2:] != (k, m, m):
            raise StructuralError(
                f"operator rows must be L (k, m, m) and Ms (k, dim_w, m, m), "
                f"got L {self.L.shape} and Ms {self.Ms.shape}")
        if self.index is None and k != 1:
            raise StructuralError(f"{k} operator rows need each node's row (index)")

    @cached_property
    def groups(self) -> list | None:
        """``(rows, nodes)`` pairs, the slice ``rows`` acting on ``nodes``: each
        node's own row on the nodes in row order (a slice when that is level
        order), and otherwise each row on its nodes in level order.  A shared
        row acts on every node and has no pairs (None)."""
        index = self.index
        if index is None:
            return None
        if len(self.L) == len(index):
            in_order = np.array_equal(index, np.arange(len(index)))
            return [(slice(None), slice(None) if in_order else np.argsort(index))]
        order = np.argsort(index, kind="stable")
        cuts = np.flatnonzero(np.diff(index[order])) + 1
        return [(slice(index[n[0]], index[n[0]] + 1), n) for n in np.split(order, cuts)]


def _apply(op: Array, vec: Array, groups: list | None) -> Array:
    """Level-wise action of ``op`` (matrix rows) on ``vec`` (n, m) over
    ``groups`` (``LevelOperators.groups``): one matrix product for a shared
    row, otherwise each row's matvec on each of its nodes, put at its nodes.
    One node or many, a row's arithmetic is the same, so grouped and
    per-node rows agree bit for bit."""
    if groups is None:
        return vec @ op[0].T
    out = np.empty(vec.shape)
    for rows, nodes in groups:
        out[nodes] = (op[rows] @ vec[nodes][..., None])[..., 0]
    return out


def _generator(ops: LevelOperators, p: Array, q: Array, f: Array) -> Array:
    """Level-wise ``L p + sum_k M^k q^k + F``, on the contract above."""
    out = _apply(ops.L, p, ops.groups) + f
    for k in range(q.shape[1]):
        out = out + _apply(ops.Ms[:, k], q[:, k], ops.groups)
    return out


def _distinct_rows(w: Array) -> tuple[Array, Array]:
    """First index of each distinct row of ``w`` and every row's group.

    Rows are compared by their bytes: ``-0.0`` and ``0.0`` differ.  One
    column is sorted as plain numbers, more as records of their columns, in
    the same order.
    """
    bits = w.view(np.uint64)
    if bits.shape[1] == 1:
        _, first, inverse = np.unique(bits[:, 0], return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


_CACHE_BYTES = 1 << 24  # bytes of rows one provider keeps across levels


class _RowCache(dict):
    """Rows of named maps, by (map name, owner id, level, state bytes), and
    the ``LevelOperators`` that ``LevelFields.operators`` hands out again,
    by the slot of its keep rule; the level is ``None`` for maps over t-free
    fields.  A row is kept as a read-only copy, so a write into a row a
    caller was given raises instead of changing every later read.

    An entry holds its owner, so the id cannot name another object while the
    entry can be hit.  What would take the total past ``_CACHE_BYTES`` is
    returned but not kept, so its map runs again at every read.  The rows of
    maps that read ``t`` are kept only when ``rereads``, and then for every
    level.  Beside them it keeps what each map's fields read, by (map name,
    owner id).
    """

    def __init__(self, rereads: bool):
        super().__init__()
        self.nbytes, self.rereads, self.reads = 0, rereads, {}

    def fits(self, nbytes: int) -> bool:
        return self.nbytes + nbytes <= _CACHE_BYTES

    def keep(self, slot, owner, row: Array) -> Array:
        """Keep a read-only copy of ``row`` under ``slot`` if it fits the byte
        bound; return the kept copy, or ``row`` when it is not kept."""
        if not self.fits(row.nbytes):
            return row
        row = row.copy()
        row.flags.writeable = False
        self[slot] = (owner, row)
        self.nbytes += row.nbytes
        return row

    def map_reads(self, key, fields) -> frozenset:
        """What ``fields``, those of the map ``key``, read: found once per map."""
        name, owner = key
        entry = self.reads.get((name, id(owner)))
        if entry is None:
            entry = self.reads[name, id(owner)] = (owner, reads_of(fields))
        return entry[1]


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
    ``level_rows``, which runs a map on the states of the groups of the
    level's nodes that its fields' ``reads`` call for (``groups``): one state
    per level (``k = 1``) when they read no history, the level's distinct
    Wiener values when they read ``w``, and each node's history when they
    read the whole history.  A map takes all its states at once: a field
    is read in all of them by its one read (``CoefficientField.evaluate_states``)
    and the operators of every state are assembled by one stacked product.
    The groups are kept for the current level only.  The terminal, the
    source and the operators are named maps, whose rows the provider keeps
    (``level_rows``) read-only and hands out as they are: a time-invariant
    L is assembled once per solve, not once per level.  A map over fields
    that read ``t`` runs once per level and state, and its rows are kept
    only when the provider is made with ``rereads``, for a caller that reads
    every level again (the Picard steps of ``freeze_and_iterate``).  What a
    map's fields read is found once per map, not once per read.
    ``operators`` returns its rows with each node's row as one
    ``LevelOperators``, which carries the step's inverse and its node groups
    and is handed out again (see ``operators``); the terminal and the source
    are expanded to every node (``level_map``).  A filtration or basis made for
    another scenario is refused (``_check_inputs``).
    """

    def __init__(self, scenario, filtration, basis: SpectralBasis, rereads: bool = False):
        _check_inputs(scenario, filtration, basis)
        self.scenario = scenario
        self.filtration = filtration
        self.basis = basis
        self._level = None
        self._groups: dict = {}
        self._rows = _RowCache(rereads)

    def select(self, rows: slice) -> "LevelFields":
        """The provider of the paths ``rows`` of an ensemble; it shares this
        provider's rows, and its byte bound."""
        out = LevelFields(self.scenario, self.filtration.select(rows), self.basis)
        out._rows = self._rows
        return out

    def groups(self, level: int, reads) -> tuple:
        """The states of the groups of the level's nodes, for fields that read
        ``reads``, and each node's group: ``([None], None)`` when they read
        no history; the level's distinct Wiener values, a (k, dim_w) array,
        when they read ``"w"``; and one ``PathHistory`` per node, in level
        order, only when they read ``"history"``.  States are told apart by
        their bytes, not by float comparison, so ``-0.0`` and ``0.0`` stay
        apart and a Markov field sees exactly the bits it would see at each
        of the group's nodes.
        """
        if not reads & {"w", "history"}:
            return [None], None
        per_node = "history" in reads
        if level != self._level:
            self._level, self._groups = level, {}
        if per_node not in self._groups:
            incs = self.filtration.level_increments(level)
            w = incs.sum(axis=1)  # the same sum, in the same order, as each history.w
            if per_node:
                t, dt = level * self.filtration.dt, self.filtration.dt
                self._groups[per_node] = ([PathHistory(t, dt, incs[i], w[i])
                                           for i in range(len(w))], np.arange(len(w)))
            else:
                first, inverse = _distinct_rows(w)
                self._groups[per_node] = (w[first], inverse)
        return self._groups[per_node]

    def level_rows(self, level: int, fields, fn, key) -> tuple[Array, Array | None]:
        """``fn(t, states)`` on the states of the level's groups: the rows,
        one per state, and ``index``, each node's row, which is ``None`` when
        one row is shared by the level.

        ``fields`` are the coefficient fields ``fn`` reads: ``fn`` gets the
        states of ``groups(level, reads)``, ``reads`` being their union, and
        returns their rows stacked, one per state.

        ``key``, a ``(name, owner)`` pair, names the map: besides ``fields``,
        which the key fixes, ``fn`` reads only ``owner``, and it reads ``t``
        only through ``fields``.  A map over fields that read no
        ``"history"`` keeps its rows, keyed by the bytes of ``w``, and by the
        level when a field reads ``"t"`` (only under ``rereads``), and runs
        once on the states it has no row for: over a solve a t-free
        map reads a deterministic state once and each distinct Wiener state
        of all levels once, and a second read of a level runs no map.  An
        ensemble's paths each hold their own state past t = 0, which never
        recurs, so a level of them is read afresh and not kept.  A level of
        one kept state gets that kept, read-only row as a (1, ...) view.
        The rows are bit-equal to those of a fresh evaluation.
        """
        reads = self._rows.map_reads(key, fields)
        states, index = self.groups(level, reads)
        t = level * self.filtration.dt
        if ("history" in reads or ("t" in reads and not self._rows.rereads) or (
                index is not None and level > 0 and isinstance(self.filtration, PathEnsemble))):
            return np.asarray(fn(t, states)), index
        name, owner = key
        slots = [(name, id(owner), level if "t" in reads else None,
                  None if index is None else w.tobytes()) for w in states]
        rows = [None if entry is None else entry[1] for entry in map(self._rows.get, slots)]
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:  # one read of every state that has no row
            made = np.asarray(fn(t, states if len(missing) == len(states)
                                 else states[missing]))
            for i, row in zip(missing, made):
                rows[i] = self._rows.keep(slots[i], owner, row)
            if len(missing) == len(states) > 1:
                return made, index
        if len(rows) == 1:
            return rows[0][None], index
        return np.stack(rows), index

    def level_map(self, level: int, fields, fn, key) -> Array:
        """``level_rows`` stacked over the level: (1, ...) or (n_level, ...)."""
        out, index = self.level_rows(level, fields, fn, key)
        return out if index is None else out[index]

    def _projected(self, field_, level: int, t=None) -> Array:
        X, project = self.basis.grid_points, self.basis.project
        return self.level_map(level, [field_], lambda s, states: project(
            field_.evaluate_states(s if t is None else t, X, states), stacked=True),
            ("projected", field_))

    def terminal(self) -> Array:
        return self._projected(self.scenario.phi, self.filtration.n_steps,
                               self.scenario.horizon)

    def source(self, level: int) -> Array:
        return self._projected(self.scenario.F, level)

    def operators(self, level: int, scenario=None) -> LevelOperators:
        """Assembled (L, Ms) of ``scenario`` (default: the provider's own):
        one row per group of the level and each node's row, their bytes
        checked before the first is assembled.  The ``LevelOperators`` made
        is handed out again, with its step memo and node groups, while it
        and room for the step's inverse fit the byte bound: made at the first
        level read and returned at every level when the coefficients read
        none of ``t``, ``w`` and the history, and otherwise, under
        ``rereads``, made once per level of the provider's filtration."""
        scn = scenario if scenario is not None else self.scenario
        # the keep rule: one object for every level, or one per level under rereads
        slot = (LevelOperators, id(scn))
        entry = self._rows.get(slot) or self._rows.get((*slot, id(self.filtration), level))
        if entry is not None:
            return entry[1]
        coeffs, basis = scn.coefficient_fields(), self.basis
        reads = self._rows.map_reads(("L", scn), coeffs.values())
        if reads & {"t", "w", "history"}:
            slot = (*slot, id(self.filtration), level) if self._rows.rereads else None
        rows = len(self.groups(level, reads)[0])
        # L, the M^k, and the step's I - theta dt L with its temporary
        check_bytes(rows * (3 + scn.dim_w) * basis.n_modes ** 2 * 8,
                    f"the operators of level {level}")

        def samples(t, states, names):  # the grid samples of every state
            return {name: coeffs[name].evaluate_states(t, basis.grid_points, states)
                    for name in names}
        L, index = self.level_rows(
            level, coeffs.values(),
            lambda t, states: assemble_L(scn, samples(t, states, ("a", "b", "c")), basis),
            ("L", scn))
        Ms, _ = self.level_rows(
            level, coeffs.values(),
            lambda t, states: assemble_M(scn, samples(t, states, ("sigma", "nu")), basis),
            ("M", scn))
        ops = LevelOperators(L, Ms, index)
        fresh = [a for a in (L, Ms) if a.flags.writeable]  # rows no row slot keeps
        nbytes = L.nbytes + sum(a.nbytes for a in fresh)  # and the step's inverse
        if slot is not None and self._rows.fits(nbytes):
            for a in fresh:
                a.flags.writeable = False
            self._rows[slot] = ((scn, self.filtration), ops)
            self._rows.nbytes += nbytes
        return ops


# -- the backward engine ------------------------------------------------------

def _level_step(ops: LevelOperators, Ep, q, fhat, dt, theta, level, first_node=0,
                paths=None):
    """One implicit theta step for every node of a level (contract above).

    Every row's matrix I - theta dt L is inverted by one batched inverse and
    applied to each of its nodes by ``_apply``, as L and the M^k are: a
    shared row as one matrix product over the level, other rows by one
    matvec per node.  Each row's largest absolute row sum of its inverse,
    which bounds its nodes' amplification, is kept beside it, in the
    operators' ``kept`` memo: operators the provider hands out again (one
    object for every level of a solve, or one per level for the Picard steps)
    carry both from the call that made them, and the step reads them there
    when theta and dt match and inverts nothing.  The node groups come from
    ``LevelOperators.groups``, made once per object.  The finiteness and
    bound tests run at every call either way.

    ``paths``, an (n, k) matrix of entries at most 1 in size, says that
    ``Ep`` and ``q`` are k rows of coefficients of n nodes' values in its
    columns, and ``fhat`` one row added to every node or a row per node: the
    step is linear, so it steps the rows ``[Ep; 0]``, ``[q; 0]`` and
    ``[0; fhat]`` and returns the stepped rows ``out``, whose nodes' values
    are ``paths @ out[:k] + out[k:]``.  The values are formed only when the
    rows prove nothing.  Errors name the node as ``first_node`` plus its
    place among the nodes, never a row.
    """
    L, Ms, index, kept, groups = ops.L, ops.Ms, ops.index, ops.kept, ops.groups
    if paths is not None:  # the k coefficient rows, then the source rows
        k, n_f = len(Ep), len(fhat)
        Ep, q = (np.concatenate([rows, np.zeros((n_f,) + rows.shape[1:])])
                 for rows in (Ep, q))
        fhat = np.concatenate([np.zeros((k,) + fhat.shape[1:]), fhat])
    rhs = Ep + dt * fhat
    if theta < 1.0:
        rhs += dt * (1.0 - theta) * _apply(L, Ep, groups)
    for j in range(q.shape[1]):
        rhs += dt * _apply(Ms[:, j], q[:, j], groups)

    def matrix():  # I - theta dt L of every row
        return np.eye(L.shape[-1]) - theta * dt * L

    if kept and kept[0][:2] == (theta, dt):
        inverse, bound = kept[0][2:]
    else:
        try:
            inverse = np.linalg.inv(matrix())
        except np.linalg.LinAlgError as exc:
            # LAPACK stops on an exactly zero pivot, which makes the determinant 0;
            # the first such node in level order is named, whatever its row
            singular = np.linalg.det(matrix()) == 0
            node = first_node + int(np.argmax(singular if index is None else singular[index]))
            raise NumericError(
                f"singular implicit step at level {level}, node {node}: {exc}") from exc
        # max_i sum_j |inverse_ij| of each row: none of its nodes amplifies more
        bound = np.abs(inverse).sum(axis=-1).max(axis=-1)
        kept[:] = [(theta, dt, inverse, bound)]
    out = _apply(inverse, rhs, groups)

    # a dissipative implicit step never amplifies like this; a near-zero
    # pivot that LAPACK lets through does.  A row whose bound is 1e11 or less
    # keeps each of its nodes below 1e12, rounding included, so only the
    # nodes of the other rows (a nan bound proves nothing) are measured, and
    # a finite level needs no per-node test.  A shared row's one bound is
    # compared as a scalar: a kept step makes that test at every level.
    # With ``paths`` a node's value is k rows times entries at most 1 in
    # size plus one source row, at most (k + 1) max |out|: the rows prove
    # every node finite when that is below the largest float, and only a
    # level they do not is formed at its nodes
    finite = (np.isfinite(out).all() if paths is None
              else np.abs(out).max() <= np.finfo(float).max / (k + 1))
    if (bound[0] if index is None else bound.max()) <= 1e11 and finite:
        return out

    def at_nodes(rows):  # the nodes' values of the step's rows (``paths``)
        if paths is None:
            return rows
        return np.tensordot(paths, rows[:k], axes=1) + rows[k:]

    values, rhs = at_nodes(out), at_nodes(rhs)

    def amplification(nodes):
        return np.max(np.abs(values[nodes]), axis=-1) / (
            np.max(np.abs(rhs[nodes]), axis=-1) + 1e-300)

    bad = ~np.all(np.isfinite(values), axis=-1)
    unproven = ~(bound <= 1e11)  # of each row, then of each node
    unproven = np.broadcast_to(unproven if index is None else unproven[index], bad.shape)
    bad[unproven] |= amplification(unproven) > 1e12
    if bad.any():
        node = int(np.argmax(bad))
        raise NumericError(f"singular implicit step at level {level}, node "
                           f"{first_node + node} (amplification {amplification(node):.1e})")
    return out


def _backward(filtration, scheme: SchemeConfig, p: Array, operators, source, expect):
    """The package's one backward level loop: from the leaves' ``p``, yield
    ``(level, p, q, paths)`` for every level, last first; a caller keeps what
    it reads.  ``source(level)`` is the level's (k, m) source, and
    ``operators(level)`` yields ``(nodes, LevelOperators)`` pairs, consecutive
    slices of the level's nodes with their operators.  ``expect(level,
    p_next)`` is the filtration's ``(E[p_next | node], E[p_next dW | node] /
    dt, paths)``, as values at the nodes (``paths`` None) or as coefficient
    rows of them in the columns of ``paths``; then ``p`` is the stepped rows
    of ``_level_step``, and ``p_next`` the last level's.
    """
    dt, theta = filtration.dt, scheme.theta
    for level in range(filtration.n_steps - 1, -1, -1):
        Ep, q, paths = expect(level, p)
        f = source(level)
        p = [_level_step(ops, Ep[nodes], q[nodes], f if len(f) == 1 else f[nodes], dt,
                         theta, level, nodes.start, paths)
             for nodes, ops in operators(level)]  # one part per block of nodes
        p = p[0] if len(p) == 1 else np.concatenate(p)
        yield level, p, q, paths


def backward_solve(tree: WienerTree, basis: SpectralBasis, scheme: SchemeConfig,
                   terminal: Array, operators, source) -> SolutionPair:
    """Run the backward recursion level by level on the level-array contract
    and keep every level, as the audits read them.

    terminal          -> (k, m) spectral vectors at the leaves
    operators(level)  -> the level's ``LevelOperators``
    source(level)     -> (k, m) left-endpoint source
    """
    N = tree.n_steps
    q_levels: list[Array] = [None] * N
    p_levels = q_levels + [np.array(
        np.broadcast_to(terminal, (tree.levels[N].n_nodes, basis.n_modes)))]
    for level, p, q, _ in _backward(
            tree, scheme, p_levels[N], lambda level: [(slice(0, None), operators(level))],
            source, lambda level, p_next: (*tree.expectations(level, p_next), None)):
        p_levels[level], q_levels[level] = p, q
    return SolutionPair(AdaptedField(tree, basis, p_levels),
                        AdaptedField(tree, basis, q_levels))


def _check_solution_bytes(n_nodes: int, n_modes: int, dim_w: int) -> None:
    """Refuse p and q on ``n_nodes`` nodes past the byte budget: per node, one
    row of p and ``dim_w`` rows of q, of ``n_modes`` entries each."""
    check_bytes(n_nodes * n_modes * (1 + dim_w) * 8, f"p and q on {n_nodes} nodes")


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
    _check_solution_bytes(tree.n_nodes, basis.n_modes, tree.dim_w)
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
        Ep = tree.conditional_mean(level, solution.p.levels[level + 1])
        drift = _generator(fields.operators(level), theta * p + (1.0 - theta) * Ep, q,
                           fields.source(level))
        yield p - Ep - tree.dt * drift


def strong_residual(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
                    basis: SpectralBasis, scheme: SchemeConfig | None = None) -> list[Array]:
    """Per-node L2 norm of the scheme's own one-step identity.

    For an exact solver output this is round-off.
    """
    return [basis.norm(d, 0) for d in _defects(solution, scenario, tree, basis, scheme)]


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
    """First ``size`` monomials of the state, ordered by (total degree, lex):
    each is its parent's, the monomial of its index tuple less the last
    index, times that index's state column, so a monomial is the running
    product of its columns in order."""
    from itertools import combinations_with_replacement, count, islice
    combos = list(islice((combo for deg in count() for combo in
                          combinations_with_replacement(range(states.shape[1]), deg)), size))
    place = {combo: i for i, combo in enumerate(combos)}
    out = np.empty((len(states), size))
    out[:, 0] = 1.0
    for i, combo in enumerate(combos[1:], 1):
        np.multiply(out[:, place[combo[:-1]]], states[:, combo[-1]], out=out[:, i])
    return out


def _fit(design: Array | None, step: int) -> tuple[Array | None, Array | None]:
    """The QR factors Q (n, k) and R (k, k) of the design: the least-squares
    fit of targets is Q C with C = Q^T targets.  With no design (t=0, where
    every path has one state) both are None and the fit is the targets' mean.

    The design is rank-deficient, an error, when it has fewer rows (paths)
    than columns, or when a |R_ii| is at most max(n, k) eps times the largest.
    """
    if design is None:
        return None, None
    n, k = design.shape
    Q, R = np.linalg.qr(design)
    diag = np.abs(np.diag(R))
    if n < k or diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
        raise NumericError(f"rank-deficient regression design at time step {step}")
    return Q, R


_BLOCK_ENTRIES = 1 << 18  # entries per stack of per-path operator matrices


def solve_regression(scenario: Scenario, ensemble: PathEnsemble, basis: SpectralBasis,
                     regression_basis_size: int = 4,
                     scheme: SchemeConfig | None = None) -> RegressionSolution:
    """Least-squares Monte Carlo version of the backward recursion: the one
    loop, ``_backward``, with an ``expect`` that regresses ``p_next`` and its
    ``dim_w`` products ``p_next dW^k / dt`` on monomials of the current
    Wiener state, one QR of the design per step (``_fit``).

    Per-path operator rows step the fitted values of every path, one block
    of paths at a time, each block's rows read and assembled in one batched
    call; step 0, where every path is at w = 0, is one block unless the
    coefficients read the history.  With deterministic coefficients the step acts on
    the modes alone, so it commutes with the fit, and p at the paths is kept
    in factored form, ``p = Q_prev Y + S``: Y the k stepped coefficient rows
    of the last step's Q, S its stepped source rows (one row, or one per
    path when F is adapted; the terminal at the first step).  The next fit
    is then a product of small Gram matrices,

        C   = (Q^T Q_prev) Y + Q^T S
        C_q = (Q^T diag(dW^k / dt) Q_prev) Y + Q^T (dW^k / dt  S),

    and the step takes the k rows C and C_q with ``paths = Q``: no array of
    a row per path is formed unless S has one.  The design's first column is
    1 = Q R[:, 0], so Q's first column is 1 / R_00 and Q^T 1 = R[:, 0]; the
    constant direction is kept exactly, off the Gram matrices (a sum of n
    same-sign terms): one-row S is fitted as R[:, 0] S, and Q's first
    column's share of Y moves into S after each step.  Q's other columns
    have path mean 0, so the path mean of Q C is C[0] / R_00.  Only the
    running p and the q path means are kept.  Deterministic scenarios
    reproduce the chain solver because the regression of a constant target
    is that constant.
    """
    scheme = scheme or SchemeConfig()
    if regression_basis_size < 1:
        raise StructuralError("regression_basis_size must be >= 1")
    N, dt = ensemble.n_steps, ensemble.dt
    n_paths, nm, dw = ensemble.n_paths, basis.n_modes, ensemble.dim_w
    fields = LevelFields(scenario, ensemble, basis)
    # per-path matrices are assembled and solved one block of paths at a time,
    # so a step holds about _BLOCK_ENTRIES entries per stack, not n_paths m^2;
    # a shared row is one block of every path
    size = max(1, _BLOCK_ENTRIES // nm ** 2)
    shared = scenario.coefficients_deterministic
    whole = [(slice(0, None), fields)]
    blocks = whole if shared else [
        (sl, fields.select(sl)) for sl in (slice(j, j + size)
                                           for j in range(0, n_paths, size))]
    # at step 0 every path is at w = 0: unless the coefficients read the
    # history, which holds one state per path, one read serves every path
    first = blocks if "history" in reads_of(scenario.coefficient_fields().values()) else whole
    w = ensemble.increments.sum(axis=1)  # W at the horizon; each step takes its dW off

    def fit(step):  # ``_backward`` asks for each step once, last first
        nonlocal w
        dW = ensemble.increments[:, step, :]
        w = w - dW  # W at this step
        design = None if step == 0 else _monomial_features(w, regression_basis_size)
        return (*_fit(design, step), dW / dt)

    targets = None if shared else np.empty((n_paths, 1 + dw, nm))

    def expect_values(step, p):  # every path's p and p dW / dt, fitted
        Q, _, D = fit(step)
        targets[:, 0] = p
        np.multiply(p[:, None], D[:, :, None], out=targets[:, 1:])
        fitted = (np.broadcast_to(targets.mean(axis=0, keepdims=True), targets.shape).copy()
                  if Q is None else np.tensordot(Q, np.tensordot(Q.T, targets, axes=1), axes=1))
        return fitted[:, 0], fitted[:, 1:], None

    prev = None  # the last step's Q and R_00

    def expect_rows(step, p):  # p = Q_prev Y + S, given as the rows [Y; S]
        nonlocal prev
        Q, R, D = fit(step)
        if Q is None:  # t = 0: the design is its constant column alone
            Q, R = _fit(np.ones((n_paths, 1)), step)
        if prev is None:  # the first step: p is the terminal's rows
            Y, S, Q_prev = np.zeros((0, nm)), p, np.zeros((n_paths, 0))
        else:  # Q_prev's first column, 1 / R_00, hands its share of Y to S
            Q_prev, r = prev
            k = Q_prev.shape[1]
            Y, S, Q_prev = p[1:k], p[k:] + p[0] / r, Q_prev[:, 1:]
        prev = Q, R[0, 0]

        def coeffs(x):  # Q^T x over the paths
            return (Q.T @ x.reshape(n_paths, x[0].size)).reshape(Q.shape[1:] + x.shape[1:])

        if len(S) == 1:  # Q^T 1 = R[:, 0], exactly
            C, Cq = R[:, :1] * S, coeffs(D)[..., None] * S
        else:
            C, Cq = coeffs(S), coeffs(D[:, :, None] * S[:, None])
        DQ = D[:, :, None] * Q_prev[:, None]  # (n, dim_w, k - 1)
        return coeffs(Q_prev) @ Y + C, coeffs(DQ) @ Y + Cq, Q

    p = fields.terminal()
    if not shared:
        p = np.array(np.broadcast_to(p, (n_paths, nm)))
    q_means = np.empty((N, dw, nm))
    for step, p, q, paths in _backward(  # one block of paths after the other
            ensemble, scheme, p,
            lambda step: ((sl, b.operators(step)) for sl, b in (blocks if step else first)),
            fields.source, expect_rows if shared else expect_values):
        q_means[step] = q.mean(axis=0) if paths is None else q[0] / prev[1]
    p0 = p.mean(axis=0) if paths is None else p[0] / prev[1] + p[1:].mean(axis=0)
    return RegressionSolution(basis, p0, q_means)
