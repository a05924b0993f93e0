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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from bspde import NumericError, Scenario, SpatialField, SpectralBasis, StructuralError

Array = np.ndarray


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
