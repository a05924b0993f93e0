"""Independent cross-checks for the tree solver.

``solve_dense`` restates the backward recursion as one global linear system in
all node values of p and q and solves it in a single shot, so agreement with
the level-by-level solver checks the recursion bookkeeping through a different
algebraic path.  ``heat_reference`` is a closed-form Gaussian solution for
constant-diffusion scenarios, and ``feynman_kac_mc`` estimates the
deterministic solution by simulating the characteristic diffusion, touching
no spectral machinery at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError, check_bytes
from .scenario import Scenario
from .solver import AdaptedField, SchemeConfig, SolutionPair, _check_inputs
from .space import SpatialField, SpectralBasis, assemble_L, assemble_M
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


@dataclass(frozen=True)
class GaussianBump:
    """Unnormalised Gaussian terminal datum A exp(-|x - center|^2 / (2 s^2))."""

    amplitude: float
    width: float
    center: Array | None = None

    def evaluate(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        mu = np.zeros(x.shape[1]) if self.center is None else np.asarray(self.center)
        r2 = np.sum((x - mu) ** 2, axis=1)
        return self.amplitude * np.exp(-r2 / (2.0 * self.width ** 2))


def heat_reference(phi: GaussianBump, a_const: Array, t: float,
                   horizon: float, basis: SpectralBasis) -> SpatialField:
    """Closed-form solution of dp = -a:D2p dt with Gaussian terminal datum.

    The backward heat evolution convolves the bump with a Gaussian kernel of
    covariance 2 a (T - t), so the solution stays Gaussian with covariance
    s^2 I + 2 a (T - t) and amplitude scaled by the determinant ratio.  The
    formula lives on R^d; with the bump well inside the torus the wrap-around
    error is negligible and the result is projected onto the basis.
    """
    d = basis.dim_x
    a_const = np.atleast_2d(np.asarray(a_const, dtype=float))
    if a_const.shape != (d, d):
        raise StructuralError("a_const must be a (d, d) matrix")
    cov = phi.width ** 2 * np.eye(d) + 2.0 * a_const * (horizon - t)
    det = np.linalg.det(cov)
    if det <= 1e-14:
        raise NumericError("heat reference covariance is (near-)singular")
    mu = np.zeros(d) if phi.center is None else np.asarray(phi.center)
    diff = basis.grid_points - mu
    quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
    amp = phi.amplitude * phi.width ** d / np.sqrt(det)
    values = amp * np.exp(-0.5 * quad)
    return SpatialField(basis, basis.project(values))


def feynman_kac_mc(scenario: Scenario, x: Array, t: float, n_samples: int,
                   seed: int, n_time_steps: int = 64) -> tuple[float, float]:
    """Monte Carlo value of a deterministic scenario at one space-time point.

    Requires sigma = nu = 0 and deterministic coefficients; then

        p(t, x) = E[ phi(X_T) e^{-int c} + int_t^T F(s, X_s) e^{-int_t^s c} ds ]

    along dX = b ds + sqrt(2a) dB, discretised by Euler-Maruyama (exact for
    constant coefficients).  Returns (estimate, standard error).
    """
    if not (scenario.sigma.is_zero and scenario.nu.is_zero):
        raise StructuralError("Feynman-Kac check needs sigma = 0 and nu = 0")
    if not scenario.is_deterministic:
        raise StructuralError("Feynman-Kac check needs a deterministic scenario")
    d = scenario.dim_x
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise StructuralError("x must have shape (dim_x,)")
    T = scenario.horizon
    if not 0.0 <= t < T + 1e-12:
        raise StructuralError("t must lie in [0, horizon]")

    n_steps = max(1, n_time_steps)
    h = (T - t) / n_steps
    rng = np.random.default_rng(seed)
    pos = np.broadcast_to(x, (n_samples, d)).copy()
    discount = np.zeros(n_samples)
    running = np.zeros(n_samples)

    for step in range(n_steps):
        s = t + step * h
        a_vals = scenario.a.evaluate(s, pos)
        b_vals = scenario.b.evaluate(s, pos)
        c_vals = scenario.c.evaluate(s, pos)
        f_vals = scenario.F.evaluate(s, pos)
        running += np.exp(-discount) * f_vals * h
        try:
            root = np.linalg.cholesky(2.0 * a_vals)
        except np.linalg.LinAlgError as exc:
            raise NumericError("2a lost positive definiteness along paths") from exc
        noise = rng.standard_normal((n_samples, d))
        pos = pos + b_vals * h + np.einsum("nij,nj->ni", root, noise) * np.sqrt(h)
        discount += c_vals * h

    phi_vals = scenario.phi.evaluate(T, pos)
    samples = running + np.exp(-discount) * phi_vals
    est = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return est, stderr
