"""Independent cross-check for the tree solver.

``solve_dense`` restates the backward recursion as one global linear system in
the values of p at the interior nodes and solves it in a single shot; the
leaves hold the terminal projection, known before the solve, and q is then
read off the solved p by its martingale-representation definition.
Agreement with the level-by-level solver checks the recursion bookkeeping
through a different algebraic path.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, check_bytes
from .scenario import Scenario
from .solver import AdaptedField, SchemeConfig, SolutionPair, _check_inputs
from .space import SpectralBasis, assemble_L, assemble_M
from .wiener import WienerTree


def solve_dense(scenario: Scenario, tree: WienerTree, basis: SpectralBasis,
                scheme: SchemeConfig | None = None) -> SolutionPair:
    """Solve every interior node equation for p as one dense linear system, then q.

    Unknowns: p at the interior nodes (levels 0..N-1), level after level,
    node after node; p at a leaf is the terminal projection.
    Equations: the implicit theta step at each interior node, with q's
    definition q^k = sum_c w_c dW^k_c p_c / dt substituted, so that child c
    enters as -w_c (I + (1 - theta) dt L + sum_k dW^k_c M^k): as a block of
    the matrix for an interior child, and times the known projection on the
    right-hand side for a leaf.  Each node's q is then that child sum of the
    solved p.  Sized for small audit trees only.
    """
    _check_inputs(scenario, tree, basis)
    scheme = scheme or SchemeConfig()
    nm, dt, theta, N = basis.n_modes, tree.dt, scheme.theta, tree.n_steps
    # first row of each interior level's block: nodes are stored level after level
    starts = nm * np.cumsum([0] + [lev.n_nodes for lev in tree.levels[:N]])
    n = int(starts[-1])
    check_bytes(n ** 2 * 8, f"the dense system of {n} unknowns")

    X = basis.grid_points
    leaves = np.empty((tree.levels[N].n_nodes, nm))
    for i in range(len(leaves)):
        leaves[i] = basis.project(
            scenario.phi.evaluate(scenario.horizon, X, tree.history(N, i)))

    A = np.eye(n)
    rhs = np.zeros(n)
    eye = np.eye(nm)
    for level in range(N):
        t = tree.time_of(level)
        for node in range(tree.levels[level].n_nodes):
            hist = tree.history(level, node)
            samples = {name: f.evaluate(t, X, hist)[None]  # one state: this node
                       for name, f in scenario.coefficient_fields().items()}
            L = assemble_L(scenario, samples, basis)[0]
            Ms = assemble_M(scenario, samples, basis)[0]
            row = starts[level] + node * nm
            A[row:row + nm, row:row + nm] -= theta * dt * L
            rhs[row:row + nm] = dt * basis.project(scenario.F.evaluate(t, X, hist))
            explicit = eye + (1 - theta) * dt * L
            first = tree.children_slice(level, node).start
            for j, (dw, w) in enumerate(zip(tree.increments, tree.weights)):
                noise = sum(dwk * M for dwk, M in zip(dw, Ms))
                block = -w * (explicit + noise)
                if level == N - 1:  # a known leaf: its term moves to the right
                    rhs[row:row + nm] -= block @ leaves[first + j]
                else:
                    col = starts[level + 1] + (first + j) * nm
                    A[row:row + nm, col:col + nm] = block
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dense backward system is singular: {exc}") from exc

    p_levels = [sol[starts[k]:starts[k + 1]].reshape(-1, nm) for k in range(N)] + [leaves]
    q_levels = []
    wdw = tree.weights[:, None] * tree.increments
    for level in range(N):
        q = np.empty((tree.levels[level].n_nodes, tree.dim_w, nm))
        for node in range(tree.levels[level].n_nodes):
            q[node] = wdw.T @ p_levels[level + 1][tree.children_slice(level, node)] / dt
        q_levels.append(q)
    return SolutionPair(AdaptedField(tree, basis, p_levels),
                        AdaptedField(tree, basis, q_levels))
