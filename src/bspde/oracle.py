"""Independent cross-check for the tree solver.

``solve_dense`` restates the backward recursion as one global linear system in
all node values of p and q and solves it in a single shot, so agreement with
the level-by-level solver checks the recursion bookkeeping through a different
algebraic path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, check_bytes
from .scenario import Scenario
from .solver import AdaptedField, SchemeConfig, SolutionPair, _check_inputs
from .space import SpectralBasis, assemble_L, assemble_M
from .wiener import WienerTree

Array = np.ndarray


@dataclass(frozen=True)
class DenseSystem:
    """Index bookkeeping of the stacked system (for inspection in tests)."""

    n_unknowns: int
    p_offset: dict
    q_offset: dict


def _index_maps(tree: WienerTree, n_modes: int, dim_w: int):
    p_offset, q_offset = {}, {}
    pos = 0
    for level, lev in enumerate(tree.levels):
        for node in range(lev.n_nodes):
            p_offset[(level, node)] = pos
            pos += n_modes
    for level in range(tree.n_steps):
        for node in range(tree.levels[level].n_nodes):
            for k in range(dim_w):
                q_offset[(level, node, k)] = pos
                pos += n_modes
    return DenseSystem(pos, p_offset, q_offset)


def solve_dense(scenario: Scenario, tree: WienerTree, basis: SpectralBasis,
                scheme: SchemeConfig | None = None) -> SolutionPair:
    """Solve every node equation and q-definition as one dense linear system.

    Unknowns: p at every node, q at every non-terminal node.  Equations:
    terminal projection at the leaves, the implicit theta step at interior
    nodes, and the martingale-coefficient definition tying q to the children
    of p.  Sized for small audit trees only.
    """
    _check_inputs(scenario, tree, basis)
    scheme = scheme or SchemeConfig()
    nm, dw, dt, theta = basis.n_modes, tree.dim_w, tree.dt, scheme.theta
    sysinfo = _index_maps(tree, nm, dw)
    check_bytes(sysinfo.n_unknowns ** 2 * 16,
                f"the dense system of {sysinfo.n_unknowns} unknowns")

    A = np.zeros((sysinfo.n_unknowns, sysinfo.n_unknowns), dtype=complex)
    rhs = np.zeros(sysinfo.n_unknowns, dtype=complex)
    X = basis.grid_points
    eye = np.eye(nm)

    N = tree.n_steps
    for i in range(tree.levels[N].n_nodes):
        hist = tree.history(N, i)
        row = sysinfo.p_offset[(N, i)]
        A[row:row + nm, row:row + nm] = eye
        rhs[row:row + nm] = basis.project(
            scenario.phi.evaluate(scenario.horizon, X, hist))

    c = tree.n_children
    for level in range(N):
        t = tree.time_of(level)
        nxt = tree.levels[level + 1]
        for node in range(tree.levels[level].n_nodes):
            hist = tree.history(level, node)
            L = assemble_L(scenario, t, hist, basis)
            Ms = assemble_M(scenario, t, hist, basis)
            fhat = basis.project(scenario.F.evaluate(t, X, hist))
            row = sysinfo.p_offset[(level, node)]
            A[row:row + nm, row:row + nm] = eye - theta * dt * L
            for k in range(dw):
                col = sysinfo.q_offset[(level, node, k)]
                A[row:row + nm, col:col + nm] = -dt * Ms[k]
            sl = tree.children_slice(level, node)
            for local, child in enumerate(range(sl.start, sl.stop)):
                w = nxt.weights[child]
                col = sysinfo.p_offset[(level + 1, child)]
                A[row:row + nm, col:col + nm] -= w * (eye + (1 - theta) * dt * L)
            rhs[row:row + nm] = dt * fhat

            for k in range(dw):
                qrow = sysinfo.q_offset[(level, node, k)]
                A[qrow:qrow + nm, qrow:qrow + nm] = eye
                for child in range(sl.start, sl.stop):
                    w = nxt.weights[child]
                    dwk = nxt.increments[child, k]
                    col = sysinfo.p_offset[(level + 1, child)]
                    A[qrow:qrow + nm, col:col + nm] -= (w * dwk / dt) * eye
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dense backward system is singular: {exc}") from exc

    p_levels = []
    for level, lev in enumerate(tree.levels):
        arr = np.empty((lev.n_nodes, nm), dtype=complex)
        for node in range(lev.n_nodes):
            off = sysinfo.p_offset[(level, node)]
            arr[node] = sol[off:off + nm]
        p_levels.append(arr)
    q_levels = []
    for level in range(N):
        arr = np.empty((tree.levels[level].n_nodes, dw, nm), dtype=complex)
        for node in range(tree.levels[level].n_nodes):
            for k in range(dw):
                off = sysinfo.q_offset[(level, node, k)]
                arr[node, k] = sol[off:off + nm]
        q_levels.append(arr)
    return SolutionPair(AdaptedField(tree, basis, p_levels),
                        AdaptedField(tree, basis, q_levels))
