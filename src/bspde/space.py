"""Spectral Galerkin space on the torus [-L, L)^d and operator assembly.

The basis is real.  The modes xi in {-M..M}^d are in lexicographic order, so
mode i and mode n-1-i are xi and -xi and the middle index c = (n-1)/2 is
xi = 0; with k = pi xi / L, column i is sqrt(2) cos(k_i . x) below c, 1 at c
and sqrt(2) sin(k_i . x) above it (``SpectralBasis.derivative`` is D^alpha on
these coordinates).  The columns are orthonormal under the *normalised* torus
inner product (2L)^{-d} int u v dx, so the constant field has coefficient 1 at
c, and Sobolev norms of any integer order read

    ||u||_n^2 = sum_i (1 + |k_i|^2)^n u_i^2.

Coefficient products are collocational (pointwise on the uniform grid of
2M+1 points per axis), which is the pseudo-spectral treatment of variable
coefficients.  On that grid ``project`` and ``reconstruct`` are an exact
discrete transform pair, so every periodic grid convolution with a symmetric
kernel (a smoothing kernel) is a multiplier on the coefficients.

Every operator is a table of terms D^outer(coef D^inner u), with 0 the zero
multi-index and e_i the unit one, which ``_operator`` turns into one matrix:

    L, non-divergence:  (0, b^i, e_i), (0, -c, 0), (0, a^{ij}, e_i + e_j)
    L, divergence:      (0, b^i, e_i), (0, -c, 0), (e_i, a^{ij}, e_j)
    M^k, non-divergence: (0, sigma^{ik}, e_i), (0, nu^k, 0)
    M^k, divergence:     (e_i, sigma^{ik}, 0), (0, nu^k, 0)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iter_product

import numpy as np

from .errors import StructuralError, check_bytes
from .scenario import Scenario

Array = np.ndarray


class SpectralBasis:
    """Truncated real Fourier basis with its collocation grid and assembly caches.

    Parameters
    ----------
    dim_x : spatial dimension d
    modes_per_dim : M; the per-axis mode set is -M..M (2M+1 modes)
    domain_halfwidth : L of the torus [-L, L)^d
    """

    def __init__(self, dim_x: int, modes_per_dim: int, domain_halfwidth: float):
        if dim_x < 1 or modes_per_dim < 1:
            raise StructuralError("dim_x and modes_per_dim must be >= 1")
        n = (2 * modes_per_dim + 1) ** dim_x  # modes, and grid points
        check_bytes(2 * n * n * 8, f"the synthesis and analysis matrices of {n} modes")
        self.dim_x = dim_x
        self.modes_per_dim = modes_per_dim
        self.domain_halfwidth = float(domain_halfwidth)

        M, L, d = modes_per_dim, self.domain_halfwidth, dim_x
        per_axis = np.arange(-M, M + 1)
        self.modes = np.array(list(iter_product(per_axis, repeat=d)), dtype=int)
        self.n_modes = self.modes.shape[0]
        self.freqs = np.pi * self.modes / L          # (n_modes, d) scaled frequencies
        self.freq_sq = np.sum(self.freqs ** 2, axis=1)

        g = self.grid_per_dim = 2 * M + 1
        axis_pts = -L + 2 * L * np.arange(g) / g
        mesh = np.meshgrid(*[axis_pts] * d, indexing="ij")
        self.grid_points = np.stack([m.ravel() for m in mesh], axis=-1)
        self.n_grid = self.grid_points.shape[0]

        # Synthesis S (grid x modes) and exact analysis A = S^T / n_grid.
        self._S = self._columns(self.grid_points)
        self._A = self._S.T / self.n_grid
        self._synth_cache: dict[tuple[int, ...], Array] = {(0,) * d: self._S}

    def _columns(self, x_points: Array) -> Array:
        """Every basis column at the points: sqrt(2) cos, then 1, then sqrt(2) sin."""
        phase, c = np.asarray(x_points) @ self.freqs.T, self.n_modes // 2
        return np.concatenate([np.sqrt(2.0) * np.cos(phase[:, :c]), np.ones((len(phase), 1)),
                               np.sqrt(2.0) * np.sin(phase[:, c + 1:])], axis=1)

    # -- transforms -----------------------------------------------------------

    def project(self, values: Array, stacked: bool = False) -> Array:
        """Coefficients of the grid samples (exact for band-limited fields):
        ``values`` (n_grid, ...) gives (n_modes, ...), and ``stacked`` values
        (k, n_grid, ...) give (k, n_modes, ...), one product per sample."""
        values = np.asarray(values)
        lead = values.shape[:1] if stacked else ()
        grid, tail = values.shape[len(lead)], values.shape[len(lead) + 1:]
        if grid != self.n_grid:
            raise StructuralError(f"expected {self.n_grid} grid values, got {grid}")
        flat = values.reshape(lead + (grid, -1)) if stacked else values
        return (self._A @ flat).reshape(lead + (self.n_modes,) + tail)

    def reconstruct(self, coeffs: Array) -> Array:
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.n_modes:
            raise StructuralError(
                f"expected {self.n_modes} coefficients, got {coeffs.shape[-1]}")
        return coeffs @ self._S.T

    def evaluate_at(self, coeffs: Array, x_points: Array) -> Array:
        """Trigonometric evaluation at arbitrary points (not just the grid)."""
        return np.asarray(coeffs) @ self._columns(x_points).T

    # -- norms ----------------------------------------------------------------

    def sobolev_weight(self, order: int | float) -> Array:
        return (1.0 + self.freq_sq) ** order

    def norm_sq(self, coeffs: Array, order: int | float = 0):
        sq = np.sum(self.sobolev_weight(order) * np.square(coeffs), axis=-1)
        return float(sq) if np.ndim(coeffs) == 1 else sq

    def norm(self, coeffs: Array, order: int | float = 0):
        return np.sqrt(self.norm_sq(coeffs, order))

    # -- differentiation ------------------------------------------------------

    def derivative(self, alpha: tuple[int, ...], coeffs: Array) -> Array:
        """D^alpha of coefficient rows (the last axis): k^alpha times the row, times
        Re(i^|alpha|), for even |alpha|, and k^alpha times the row reversed (each
        pair's cos and sin trade places), times -Im(i^|alpha|), for odd |alpha|."""
        if len(alpha) != self.dim_x:
            raise StructuralError("multi-index length must equal dim_x")
        order, coeffs = sum(alpha), np.asarray(coeffs)
        mult = (-1.0) ** ((order + 1) // 2) * np.prod(
            [self.freqs[:, j] ** a for j, a in enumerate(alpha) if a], axis=0)
        return mult * (coeffs[..., ::-1] if order % 2 else coeffs)

    def _synth(self, alpha: tuple[int, ...]) -> Array:
        """Grid values of D^alpha u from u's coefficients: S D, for the D that
        ``derivative`` applies to rows as D^T = (-1)^|alpha| D."""
        if alpha not in self._synth_cache:
            self._synth_cache[alpha] = (-1.0) ** sum(alpha) * self.derivative(alpha, self._S)
        return self._synth_cache[alpha]


@dataclass(frozen=True)
class SpatialField:
    """A field given by its cos/sin coefficients on a shared basis."""

    basis: SpectralBasis
    coeffs: Array

    def values(self) -> Array:
        return self.basis.reconstruct(self.coeffs)

    def norm(self, order: int | float = 0) -> float:
        return float(self.basis.norm(self.coeffs, order))


@lru_cache
def _index(d: int, *axes: int) -> tuple[int, ...]:
    """The multi-index e_{axes[0]} + e_{axes[1]} + ... in d dimensions (0 for no axes)."""
    return tuple(axes.count(j) for j in range(d))


def _operator(basis: SpectralBasis, terms: list) -> Array:
    """Matrices (k, m, m) of u -> sum D^outer(coef * D^inner u) over ``(outer,
    coef, inner)`` terms, ``coef`` (k, n_grid) sampled in each of k states:
    in each state, the terms of one ``outer`` are summed on the grid, in the
    order the terms first name it and skipping a term whose samples there
    are all zero, and analysed back once, one product per state (a stacked
    ``matmul`` has each state's bits; one product over the stack would not)."""
    k, m = len(terms[0][1]), basis.n_modes
    op = np.zeros((k, m, m))
    live = [(outer, coef, inner, coef.any(axis=-1)) for outer, coef, inner in terms]
    for outer in dict.fromkeys(o for o, _, _, on in live if on.any()):
        group = [(coef, inner, on) for o, coef, inner, on in live if o == outer]
        states = np.logical_or.reduce([on for _, _, on in group])  # those with a term
        body = np.zeros((int(states.sum()), basis.n_grid, m))
        for coef, inner, on in group:
            if on.all():
                body += coef[:, :, None] * basis._synth(inner)
            elif on.any():
                body[on[states]] += coef[on, :, None] * basis._synth(inner)
        part = basis._A @ body
        part = basis.derivative(outer, part.swapaxes(-1, -2)).swapaxes(-1, -2) \
            if any(outer) else part  # D^outer part
        if states.all():
            op += part
        else:
            op[states] += part
    return op


def assemble_L(scenario: Scenario, samples: dict, basis: SpectralBasis) -> Array:
    """Drift operator matrices (k, m, m) on spectral coefficients, one per state
    of the stacked grid samples ``samples["a"]`` (k, n_grid, d, d),
    ``samples["b"]`` (k, n_grid, d) and ``samples["c"]`` (k, n_grid).

    Divergence form:      L u = D_i(a^{ij} D_j u) + b^i D_i u - c u
    Non-divergence form:  L u = a^{ij} D_{ij} u + b^i D_i u - c u

    Constant coefficients produce the exact diagonal symbol, and the two forms
    coincide for x-independent a.
    """
    d, e = scenario.dim_x, partial(_index, scenario.dim_x)
    a, b, c = samples["a"], samples["b"], samples["c"]
    terms = [(e(), b[:, :, i], e(i)) for i in range(d)] + [(e(), -c, e())]
    terms += [(e(), a[:, :, i, j], e(i, j)) if scenario.form == "non_divergence"
              else (e(i), a[:, :, i, j], e(j)) for i in range(d) for j in range(d)]
    return _operator(basis, terms)


def assemble_M(scenario: Scenario, samples: dict, basis: SpectralBasis) -> Array:
    """Noise operator matrices (k, dim_w, m, m), M^k in each state of the
    stacked grid samples ``samples["sigma"]`` (k, n_grid, d, dim_w) and
    ``samples["nu"]`` (k, n_grid, dim_w).

    Divergence form:      M^k v = D_i(sigma^{ik} v) + nu^k v
    Non-divergence form:  M^k v = sigma^{ik} D_i v + nu^k v
    """
    d, e = scenario.dim_x, partial(_index, scenario.dim_x)
    sig, nu = samples["sigma"], samples["nu"]
    return np.stack([_operator(basis, [(e(), sig[:, :, i, k], e(i))
                                       if scenario.form == "non_divergence"
                                       else (e(i), sig[:, :, i, k], e()) for i in range(d)]
                               + [(e(), nu[:, :, k], e())])
                     for k in range(scenario.dim_w)], axis=1)

