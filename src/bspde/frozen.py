"""Frozen-coefficient solves, the freezing fixed point, and continuation in lambda.

With the second-order coefficients frozen at a spatial point x0 (keeping any
time/randomness dependence) the equation decouples mode by mode:

    dp_hat = -[ -(a0 k k) p_hat + i (sigma0 k) . q_hat + F_hat ] dt + q_hat dW,

so the backward recursion runs with scalar algebra per mode.  The freezing
iteration solves the variable-coefficient problem by Picard: the operators of
(a - a0, sigma - sigma0), assembled in the scenario's own form together with
all lower-order terms, act on the current iterate and are folded into the
source of the frozen solve, and the map contracts when the spatial
oscillation of (a, sigma) is small.  Continuation blends the second-order
coefficients between their frozen and true values on a uniform lambda grid,
warm-starting each step at the previous solution, which reaches coefficient
families whose direct freezing iteration diverges.

The folded source enters the step at the left endpoint without theta
splitting, so the fixed point reproduces the full tree solve exactly at
theta = 1 (the default); use theta = 1 whenever agreement with ``solve_tree``
matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, StructuralError
from .scenario import CoefficientField, PathHistory, Scenario
from .solver import (LevelFields, SchemeConfig, SolutionPair, _generator,
                     backward_solve, pair_difference)
from .space import SpectralBasis
from .wiener import WienerTree

Array = np.ndarray


def freeze(scenario: Scenario, x0: Array) -> Scenario:
    """The reduced problem of the freezing method.

    a and sigma are frozen at the point x0 (their t and noise dependence
    kept) and b, c and nu are zero.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (scenario.dim_x,):
        raise StructuralError("freeze point must have shape (dim_x,)")
    zero = CoefficientField.zero
    return scenario.with_fields(
        a=_frozen_field(scenario.a, x0), sigma=_frozen_field(scenario.sigma, x0),
        b=zero((scenario.dim_x,)), c=zero(()), nu=zero((scenario.dim_w,)))


def _frozen_field(field_: CoefficientField, x0: Array) -> CoefficientField:
    """The same field evaluated only at x0, hence independent of x."""
    point = x0[None, :]
    return CoefficientField.derived(
        lambda t, X, hist: np.broadcast_to(field_.evaluate(t, point, hist)[0],
                                           (len(X),) + field_.shape),
        field_.shape, field_)


def _frozen_L(frozen: Scenario, basis: SpectralBasis, t: float,
              hist: PathHistory | None) -> Array:
    """Diagonal symbol of a0:D2 at (t, history)."""
    a0 = frozen.a.evaluate(t, np.zeros((1, frozen.dim_x)), hist)[0]     # (d, d)
    k = basis.freqs
    return -np.einsum("ij,mi,mj->m", a0, k, k).astype(complex)


def _frozen_M(frozen: Scenario, basis: SpectralBasis, t: float,
              hist: PathHistory | None) -> Array:
    """Diagonal symbols of sigma0.grad at (t, history), (dim_w, n_modes)."""
    s0 = frozen.sigma.evaluate(t, np.zeros((1, frozen.dim_x)), hist)[0]  # (d, dw)
    return np.array([1j * (basis.freqs @ s0[:, kk]) for kk in range(frozen.dim_w)])


def solve_frozen(frozen: Scenario, tree: WienerTree, basis: SpectralBasis,
                 scheme: SchemeConfig | None = None,
                 source_levels: list[Array] | None = None) -> SolutionPair:
    """Backward solve with per-mode scalar algebra (coefficients frozen in x).

    ``frozen`` is a ``freeze``d scenario: only its a, sigma, F and phi are read.

    ``source_levels`` optionally replaces the scenario source with tabulated
    per-node spectral vectors (one array of shape (n_nodes, n_modes) per
    level); the freezing iteration and the continuation march use this hook.
    """
    scheme = scheme or SchemeConfig()
    fields = LevelFields(frozen, tree, basis)
    coeffs = (frozen.a, frozen.sigma)

    def ops(level):
        return (fields.level_map(level, coeffs, lambda t, h: _frozen_L(frozen, basis, t, h)),
                fields.level_map(level, coeffs, lambda t, h: _frozen_M(frozen, basis, t, h)))

    source = fields.source if source_levels is None else source_levels.__getitem__
    return backward_solve(tree, basis, scheme, fields.terminal(), ops, source)


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of the freezing Picard iteration.

    ``contraction_ratios`` lists successive update-distance ratios (available
    from the second update on); the first entry is the observed one-step
    contraction factor of the map.
    """

    iterations: int
    contraction_ratios: list[float]
    converged: bool
    final_defect: float


def _difference_field(f: CoefficientField, f0: CoefficientField) -> CoefficientField:
    """f - f0."""
    return CoefficientField.derived(
        lambda t, X, hist: f.evaluate(t, X, hist) - f0.evaluate(t, X, hist), f.shape, f, f0)


def _iteration_sources(scenario: Scenario, frozen: Scenario,
                       current: SolutionPair, tree: WienerTree,
                       basis: SpectralBasis) -> list[Array]:
    """Folded source F + L' u + sum_k M'_k v_k per level.

    (L', M') are the assembled operators of the scenario with a and sigma
    replaced by a - a0 and sigma - sigma0, so the lower-order terms and the
    scenario's form carry over unchanged.
    """
    pert = scenario.with_fields(a=_difference_field(scenario.a, frozen.a),
                                sigma=_difference_field(scenario.sigma, frozen.sigma))
    fields = LevelFields(scenario, tree, basis)
    return [_generator(*fields.operators(level, pert), current.p.levels[level],
                       current.q.levels[level], fields.source(level))
            for level in range(tree.n_steps)]


def _pair_distance(x: SolutionPair, y: SolutionPair) -> float:
    diff = pair_difference(x, y)
    return float(np.sqrt(diff.p.time_norm_sq(2) + diff.q.time_norm_sq(1)))


def freeze_and_iterate(scenario: Scenario, freeze_point: Array, tree: WienerTree,
                       basis: SpectralBasis, tol: float = 1e-9, max_iter: int = 40,
                       scheme: SchemeConfig | None = None,
                       initial: SolutionPair | None = None
                       ) -> tuple[SolutionPair, IterationReport]:
    """Picard iteration on the frozen-coefficient solve (see module doc).

    Non-convergence is reported, not raised: the caller gets the last iterate
    with ``converged=False`` and the observed ratios, which is what the
    continuation march needs to decide the step failed.
    """
    scheme = scheme or SchemeConfig()
    frozen = freeze(scenario, freeze_point)
    current = initial if initial is not None else solve_frozen(frozen, tree, basis, scheme)

    distances: list[float] = []
    converged = False
    for _ in range(max_iter):
        sources = _iteration_sources(scenario, frozen, current, tree, basis)
        nxt = solve_frozen(frozen, tree, basis, scheme, source_levels=sources)
        distances.append(_pair_distance(nxt, current))
        current = nxt
        converged = distances[-1] <= tol
        if converged or not np.isfinite(distances[-1]):
            break
    ratios = [distances[m] / distances[m - 1]
              for m in range(1, len(distances)) if distances[m - 1] > 0]
    return current, IterationReport(len(distances), ratios, converged,
                                    distances[-1] if distances else np.inf)


def _blend_field(f0: CoefficientField, f1: CoefficientField, lam: float) -> CoefficientField:
    """(1-lam) f0 + lam f1."""
    return CoefficientField.derived(
        lambda t, X, hist: (1 - lam) * f0.evaluate(t, X, hist) + lam * f1.evaluate(t, X, hist),
        f1.shape, f0, f1)


def continuation_solve(scenario: Scenario, n_lambda_steps: int, tree: WienerTree,
                       basis: SpectralBasis, tol: float = 1e-9,
                       max_iter: int = 40, freeze_point: Array | None = None,
                       scheme: SchemeConfig | None = None
                       ) -> tuple[SolutionPair, list[IterationReport]]:
    """March the second-order coefficients from frozen to true values.

    The lambda-grid is uniform on [0, 1] including both endpoints; lambda = 0
    is the frozen-in-x family (lower-order terms stay as given throughout) and
    every step is solved by ``freeze_and_iterate`` seeded at the previous
    solution.  A non-convergent step raises ``ConvergenceError`` naming the
    failing lambda.
    """
    if n_lambda_steps < 1:
        raise StructuralError("n_lambda_steps must be >= 1")
    x0 = np.zeros(scenario.dim_x) if freeze_point is None \
        else np.asarray(freeze_point, dtype=float)
    frozen = freeze(scenario, x0)

    reports: list[IterationReport] = []
    current: SolutionPair | None = None
    for j in range(n_lambda_steps + 1):
        lam = j / n_lambda_steps
        blended = scenario.with_fields(a=_blend_field(frozen.a, scenario.a, lam),
                                       sigma=_blend_field(frozen.sigma, scenario.sigma, lam))
        current, report = freeze_and_iterate(
            blended, x0, tree, basis, tol=tol, max_iter=max_iter,
            scheme=scheme, initial=current)
        reports.append(report)
        if not report.converged:
            raise ConvergenceError(
                f"continuation step at lambda={lam:g} did not converge "
                f"(last defect {report.final_defect:.3e})")
    return current, reports
