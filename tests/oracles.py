"""Independent reference computations that pin expected values in the tests.

Everything here deliberately avoids the package's own transforms and
recursions: quadrature rules come from a hand-rolled Golub-Welsch
eigensolve, heat solutions from closed-form Gaussian image sums or adaptive
quadrature on the line, and the per-mode backward recursions from plain
scalar loops.  Agreement between these and the package is then a genuine
cross-check, not a reflection.  ``heat_reference`` is the closed-form
Gaussian heat solution, projected on the basis with the package's own
transform, and ``feynman_kac_mc`` samples the characteristic diffusion of a
deterministic scenario, reading only its fields.  ``to_exponential`` and
``exponential_operators`` restate the package's cos/sin coordinates and its
operators on the exponentials exp(i k . x), built from the mode list alone.

The last three are references that the lab's commands never run, so they
live here rather than in the package, and they do use its engine:
``coercivity_probe`` fits the constants (lambda, Lambda) of the coercivity
inequality on trial fields, ``ito_identity_check`` measures the level-by-level
defect of the squared-norm balance, and ``higher_regularity_solve`` solves the
derived equation for D^alpha p of a ``MultiIndex`` alpha, which
``helpers.higher_regularity_reference`` rebuilds one node at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from bspde import (AdaptedField, CoefficientField, LevelFields, NumericError, Scenario,
                   SchemeConfig, SolutionPair, SpatialField, SpectralBasis, StructuralError,
                   WienerTree, backward_solve, solve_tree)
from bspde.solver import _expectation, _generator

Array = np.ndarray

_MAX_ORDER = 2          # highest order |alpha| of the higher-regularity solve


def gauss_hermite_probabilist(n: int):
    """Nodes/weights for E[f(Z)], Z ~ N(0,1), via the Jacobi matrix.

    The probabilists' Hermite recurrence He_{j+1} = x He_j - j He_{j-1}
    gives a symmetric tridiagonal Jacobi matrix with zero diagonal and
    off-diagonal sqrt(j); its eigenvalues are the nodes and the squared
    first components of the normalised eigenvectors are the weights.
    """
    if n == 1:
        return np.array([0.0]), np.array([1.0])
    off = np.sqrt(np.arange(1.0, n))
    nodes, vecs = eigh_tridiagonal(np.zeros(n), off)
    weights = vecs[0] ** 2
    return nodes, weights / weights.sum()


def heat_value_quad(x: float, t: float, horizon: float, a: float, phi,
                    reach: float = 30.0) -> float:
    """p(t,x) for dp = -a p'' dt on the line by adaptive quadrature (d=1).

    Convolves the terminal datum with the Gaussian kernel of variance
    2 a (T - t); ``phi`` is a scalar callable on the line.
    """
    var = 2.0 * a * (horizon - t)
    if var == 0.0:
        return float(phi(x))

    def integrand(y):
        return phi(y) * np.exp(-(x - y) ** 2 / (2.0 * var))

    val, _ = quad(integrand, x - reach, x + reach, limit=400)
    return float(val / np.sqrt(2.0 * np.pi * var))


def periodized_bump_heat(x, t: float, horizon: float, a: float, amplitude: float,
                         width: float, halfwidth: float, n_images: int = 6):
    """Closed-form heat evolution of a centred Gaussian bump, torus-wrapped.

    The whole-line solution of the backward heat flow stays Gaussian with
    variance width^2 + 2 a (T - t) and amplitude scaled by width/std; summing
    the 2L-periodic images makes it the exact torus solution of the
    periodised datum.
    """
    x = np.asarray(x, dtype=float)
    var = width ** 2 + 2.0 * a * (horizon - t)
    total = np.zeros_like(x)
    for m in range(-n_images, n_images + 1):
        total += np.exp(-(x + 2.0 * halfwidth * m) ** 2 / (2.0 * var))
    return amplitude * width / np.sqrt(var) * total


def scalar_theta_chain(lam: complex, terminal: complex, source,
                       horizon: float, n_steps: int, theta: float) -> complex:
    """Backward theta recursion for dp/dt = -(lam p + F(t)), p(T) = terminal.

    Plain scalar loop: p_n = [p_{n+1} + dt (1-theta) lam p_{n+1}
    + dt F(t_n)] / (1 - theta dt lam); returns p at t = 0.
    """
    dt = horizon / n_steps
    p = complex(terminal)
    for step in range(n_steps - 1, -1, -1):
        rhs = p + dt * (1.0 - theta) * lam * p + dt * complex(source(step * dt))
        p = rhs / (1.0 - theta * dt * lam)
    return p


def scalar_mode_exact(lam: complex, terminal: complex, source,
                      horizon: float, n_quad: int = 4001) -> complex:
    """Exact p(0) of dp/dt = -(lam p + F(t)), p(T) = terminal.

    Variation of constants: p(0) = e^{lam T} terminal
    + int_0^T e^{lam s} F(s) ds, with the integral by fine trapezoid.
    """
    s = np.linspace(0.0, horizon, n_quad)
    vals = np.exp(lam * s) * np.array([complex(source(si)) for si in s])
    integral = np.trapezoid(vals, s)
    return np.exp(lam * horizon) * complex(terminal) + integral


# The package states every field in real cos/sin coordinates.  These restate
# them on the exponentials exp(i k . x) from the mode list alone, not from the
# package's transforms, so the tests can check the basis and its operators
# against the textbook Fourier formulas.

def to_exponential(basis, x):
    """The coefficients on exp(i k_j . x) of cos/sin coordinates ``x`` (the
    last axis).  Mode i and mode n-1-i are xi and -xi; below the middle,
    column i is sqrt(2) cos(k_i . x) and column n-1-i is
    sqrt(2) sin(-k_i . x), so x_i and x_{n-1-i} give
    c_i = (x_i + i x_{n-1-i}) / sqrt(2) and its partner the conjugate; the
    middle mode, xi = 0, keeps its coordinate."""
    assert np.array_equal(basis.modes[::-1], -basis.modes)
    x = np.asarray(x, dtype=float)
    mid = basis.n_modes // 2
    low = (x[..., :mid] + 1j * x[..., :mid:-1]) / np.sqrt(2.0)
    return np.concatenate([low, x[..., mid:mid + 1], np.conj(low[..., ::-1])], axis=-1)


def exponential_matrix(basis):
    """E, unitary, with ``to_exponential(basis, x) == E @ x``."""
    return to_exponential(basis, np.eye(basis.n_modes)).T


def exponential_operators(scenario, t, history, basis):
    """L and the M^k on the exponential coordinates, each term formed on the
    grid from the exponentials exp(i k . x) and their derivative symbols
    (i k)^alpha: the operators the package's real ones must equal under
    ``exponential_matrix``."""
    d, X, k = scenario.dim_x, basis.grid_points, basis.freqs
    S = np.exp(1j * X @ k.T)
    A = np.conj(S).T / basis.n_grid
    a, b, c = (scenario.a.evaluate(t, X, history), scenario.b.evaluate(t, X, history),
               scenario.c.evaluate(t, X, history))
    sig, nu = scenario.sigma.evaluate(t, X, history), scenario.nu.evaluate(t, X, history)
    ik = 1j * k
    div = scenario.form == "divergence"
    L = A @ (sum(b[:, i, None] * S * ik[:, i] for i in range(d)) - c[:, None] * S)
    for i in range(d):
        for j in range(d):
            L += (ik[:, i, None] * (A @ (a[:, i, j, None] * S * ik[:, j])) if div
                  else A @ (a[:, i, j, None] * S * ik[:, i] * ik[:, j]))
    Ms = []
    for kk in range(scenario.dim_w):
        Mk = A @ (nu[:, kk, None] * S)
        for i in range(d):
            Mk += (ik[:, i, None] * (A @ (sig[:, i, kk, None] * S)) if div
                   else A @ (sig[:, i, kk, None] * S * ik[:, i]))
        Ms.append(Mk)
    return L, Ms


def brute_tree_expectation(weights_per_level, values_at_leaves):
    """Root expectation of leaf data by direct path-probability summation.

    ``weights_per_level[k]`` holds the conditional edge weights of every node
    at level k (ordered as the tree stores them, children contiguous);
    multiplying along each root-to-leaf path and summing gives the
    unconditional expectation without using the tree's own prob bookkeeping.
    """
    prob = np.array([1.0])
    for w in weights_per_level[1:]:
        c = len(w) // len(prob)
        prob = np.repeat(prob, c) * np.asarray(w)
    return float(np.dot(prob, np.asarray(values_at_leaves)))


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


def coercivity_probe(basis: SpectralBasis, L_mat: Array, M_mats: list[Array],
                     trial_fields: list[Array], v_order: int = 1, h_order: int = 0,
                     slack: float = 1e-8) -> tuple[float, float, bool]:
    """Empirical coercivity constants for 2<x, Lx> + ||M* x||^2 <= -lam ||x||_V^2 + Lam ||x||_H^2.

    Inner products and adjoints are taken in H^{h_order}; the dissipation norm
    is H^{v_order}.  lambda comes from a least-squares fit over the trial
    fields; Lambda is then the smallest constant making the inequality hold on
    every trial at that lambda, so the reported pair is always feasible on the
    sample.  ``ok`` is the real verdict: the fitted lambda must be strictly
    positive (a zero operator dissipates nothing and is flagged), and the
    feasible Lambda must be finite.
    """
    wh = basis.sobolev_weight(h_order)
    g, v, h = [], [], []
    for x in trial_fields:
        quad = 2.0 * np.sum(wh * x * (L_mat @ x))
        for Mk in M_mats:
            # adjoint in H^{h_order}: W^{-h} M^T W^{h}
            mstar_x = (Mk.T @ (wh * x)) / wh
            quad += float(np.sum(wh * mstar_x ** 2))
        g.append(quad)
        v.append(basis.norm_sq(x, v_order))
        h.append(basis.norm_sq(x, h_order))
    g, v, h = np.array(g), np.array(v), np.array(h)
    design = np.stack([-v, h], axis=1)
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    lam = float(coef[0])
    Lam = float(np.max((g + lam * v) / h)) if len(h) else float(coef[1])
    Lam = max(Lam, 0.0)
    ok = bool(lam > slack and np.isfinite(Lam))
    return lam, Lam, ok


def ito_identity_check(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
                       basis: SpectralBasis) -> Array:
    """Level-by-level defect of the discrete squared-norm balance.

    The expectation of the energy identity for the backward dynamics reads

        E||p(t)||_0^2 = E||p(T)||_0^2 + 2 int_t^T E<p, Lp + Mq + F> ds
                        - int_t^T E||q||_0^2 ds,

    realised with left-rule sums over levels.  The returned array holds the
    defect at every level (index N is identically zero by construction).  For
    scenarios with L = M = F = 0 and data affine in the terminal Wiener value
    the discrete martingale isometry makes every entry vanish to round-off.
    """
    N, dt = tree.n_steps, tree.dt
    fields = LevelFields(scenario, tree, basis)
    e_norm = np.array(solution.p.expected_norms_sq(0))  # levels 0..N
    q_term = np.array(solution.q.expected_norms_sq(0))  # levels 0..N-1

    pair_term = np.empty(N)
    for level in range(N):
        prob = tree.levels[level].prob
        p, q = solution.p.levels[level], solution.q.levels[level]
        drift = _generator(fields.operators(level), p, q, fields.source(level))
        pair_term[level] = _expectation(prob, np.sum(p * drift, axis=-1))

    defects = np.zeros(N + 1)
    for level in range(N):
        tail = 2.0 * dt * pair_term[level:].sum() - dt * q_term[level:].sum()
        defects[level] = e_norm[level] - (e_norm[N] + tail)
    return defects


@dataclass(frozen=True)
class MultiIndex:
    """Spatial multi-index alpha with the usual order |alpha|."""

    alpha: tuple

    def __post_init__(self):
        if any(a < 0 for a in self.alpha):
            raise StructuralError("multi-index entries must be nonnegative")

    @property
    def order(self) -> int:
        return int(sum(self.alpha))

    def sub_indices(self):
        """All beta <= alpha componentwise, with their binomial weights."""
        from itertools import product as iproduct
        ranges = [range(a + 1) for a in self.alpha]
        for beta in iproduct(*ranges):
            coef = 1
            for ai, bi in zip(self.alpha, beta):
                coef *= math.comb(ai, bi)
            yield tuple(beta), coef


def _derivative_field(src: CoefficientField, beta: tuple, basis: SpectralBasis
                      ) -> CoefficientField:
    """The field D^beta ``src``: the spectral D^beta of the coefficients of
    its grid samples, reconstructed on the grid, interpolated off it."""
    grid = basis.grid_points

    def at(X, vals):  # the grid samples (k, n_grid, *shape) of k states, at X
        coeffs = basis.derivative(beta, basis.project(vals.reshape(vals.shape[:2] + (-1,)),
                                                      stacked=True).swapaxes(-1, -2))
        on_grid = X.shape == grid.shape and np.array_equal(X, grid)
        out = basis.reconstruct(coeffs) if on_grid else basis.evaluate_at(coeffs, X)
        return out.swapaxes(-1, -2).reshape((len(vals), len(X)) + src.shape)
    return CoefficientField.derived(
        lambda t, X, states: at(X, src.evaluate_states(t, grid, states)), src.shape, src)


def higher_regularity_solve(scenario: Scenario, tree: WienerTree, basis: SpectralBasis,
                            alpha: MultiIndex, scheme: SchemeConfig | None = None,
                            base: SolutionPair | None = None
                            ) -> tuple[SolutionPair, float]:
    """Solve the derived equation for u ~ D^alpha p and report the defect.

    The derived pair (u, v) satisfies

        du = -( L_top u + M_top v + F_tilde ) dt + v dW,  u(T) = D^alpha phi,

    where L_top and M_top keep the top-order coefficients a and sigma, and
    F_tilde collects D^alpha F and the rest of the Leibniz sum

        D^alpha (Lp + M q) = sum_{beta <= alpha} C(alpha, beta) (D^beta L, D^beta M)
                             applied to D^{alpha - beta} (p, q)

    on the base solution, with D^beta L, D^beta M the operators assembled from
    the spectral D^beta of the coefficients.  D^alpha commutes with the outer
    D_i of the divergence form, so the sum holds in both forms.  The defect is
    the discrete |||u - D^alpha p|||_0 distance to the spectral derivative of
    the base solution.
    """
    scheme = scheme or SchemeConfig()
    if len(alpha.alpha) != basis.dim_x:
        raise StructuralError("multi-index length must equal dim_x")
    if alpha.order == 0 or alpha.order > _MAX_ORDER:
        raise StructuralError(
            f"multi-index order must be in 1..{_MAX_ORDER}, got {alpha.order}")
    D = partial(basis.derivative, alpha.alpha)  # D^alpha of coefficient rows

    if base is None:
        base = solve_tree(scenario, tree, basis, scheme)
    fields = LevelFields(scenario, tree, basis)
    zero = CoefficientField.zero
    coeffs = scenario.coefficient_fields()

    def without(*names):
        return scenario.with_fields(**{name: zero(coeffs[name].shape) for name in names})

    top_scn = without("b", "c", "nu")
    terms = []  # (C(alpha, beta), the D^beta scenario, D^{alpha - beta})
    for beta, coef in alpha.sub_indices():
        if any(beta):
            scn = scenario.with_fields(**{
                name: zero(f.shape) if f.is_constant
                else _derivative_field(f, beta, basis)
                for name, f in coeffs.items()})
        else:  # the top order at beta = 0 is the derived operator's
            scn = without("a", "sigma")
        if not all(f.is_zero for f in scn.coefficient_fields().values()):  # else it adds 0
            terms.append((coef, scn, partial(basis.derivative,
                                             tuple(a - b for a, b in zip(alpha.alpha, beta)))))

    def source(level):
        p, q = base.p.levels[level], base.q.levels[level]
        out = D(fields.source(level))
        for coef, scn, Dg in terms:
            out = out + coef * _generator(fields.operators(level, scn), Dg(p), Dg(q), 0)
        return out

    derived = backward_solve(tree, basis, scheme, D(fields.terminal()),
                             lambda level: fields.operators(level, top_scn), source)

    diff_levels = [derived.p.levels[k] - D(base.p.levels[k])
                   for k in range(len(derived.p.levels))]
    diff = AdaptedField(tree, basis, diff_levels)
    defect = float(np.sqrt(diff.time_norm_sq(0)))
    return derived, defect
