"""The frozen-coefficient problem, the freezing fixed point, and continuation in lambda.

With the second-order coefficients frozen at a spatial point x0 (keeping any
time/randomness dependence) and the lower-order terms dropped, the equation
decouples mode by mode:

    dp_hat = -[ -(a0 k k) p_hat + i (sigma0 k) . q_hat + F_hat ] dt + q_hat dW.

``freeze`` returns this problem as an ordinary ``Scenario``: its assembled L
and M are diagonal to round-off, and it runs on the same tree engine as any
scenario, so ``solve_tree(freeze(scenario, x0), tree, basis)`` is the frozen
solve.  The freezing iteration solves the variable-coefficient problem by
Picard: the operators of (a - a0, sigma - sigma0), assembled in the
scenario's own form together with all lower-order terms, act on the current
iterate and are folded into the source of the frozen solve, and the map
contracts when the spatial oscillation of (a, sigma) is small.  Continuation
blends the second-order coefficients between their frozen and true values on
a uniform lambda grid, warm-starting each step at the previous solution,
which reaches coefficient families whose direct freezing iteration diverges.

Every Picard step of a ``freeze_and_iterate`` call reads every level again,
so the call holds what it revisits: each level's operators of the frozen
scenario and of the perturbation, each scenario read through its own
``LevelFields``, and each level's source, as the call's first solve reads
them.  Each level's operators are assembled, and their step inverse and node
groups made, once per call, not once per step.

The folded source enters the step at the left endpoint without theta
splitting, so the fixed point reproduces the full tree solve exactly at
theta = 1 (the default); use theta = 1 whenever agreement with ``solve_tree``
matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, StructuralError
from .scenario import CoefficientField, Scenario
from .solver import (LevelFields, SchemeConfig, SolutionPair, _generator,
                     backward_solve, mixed_norm_sq, pair_difference)
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
        lambda t, X, states: np.broadcast_to(field_.evaluate_states(t, point, states),
                                             (len(states), len(X)) + field_.shape),
        field_.shape, field_)


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


def _combination(w0: float, f0: CoefficientField, w1: float, f1: CoefficientField
                 ) -> CoefficientField:
    """w0 f0 + w1 f1, written as two terms: a ``sum`` starts at 0, and
    0 + (-0.0) loses the sign.  (-1) f0 + 1 f is the IEEE result of f - f0."""
    return CoefficientField.derived(
        lambda t, X, states: (w0 * f0.evaluate_states(t, X, states)
                              + w1 * f1.evaluate_states(t, X, states)),
        f1.shape, f0, f1)


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
    # (L', M') are the operators of a - a0 and sigma - sigma0 in the scenario's
    # own form, with its lower-order terms: the part the frozen solve leaves out
    pert = scenario.with_fields(a=_combination(-1.0, frozen.a, 1.0, scenario.a),
                                sigma=_combination(-1.0, frozen.sigma, 1.0, scenario.sigma))
    fields = LevelFields(frozen, tree, basis)
    terminal = fields.terminal()
    # every step reads every level again: the call holds what the first solve reads
    ops, pert_ops, sources = map(cache, (
        fields.operators, LevelFields(pert, tree, basis).operators, fields.source))

    def folded_source(level):
        # F + L' u + sum_k M'_k v_k of the current iterate (u, v)
        return _generator(pert_ops(level), current.p.levels[level],
                          current.q.levels[level], sources(level))

    current = initial if initial is not None else backward_solve(
        tree, basis, scheme, terminal, ops, sources)
    distances: list[float] = []
    converged = False
    for _ in range(max_iter):
        nxt = backward_solve(tree, basis, scheme, terminal, ops, folded_source)
        distances.append(float(np.sqrt(mixed_norm_sq(pair_difference(nxt, current)))))
        current = nxt
        converged = distances[-1] <= tol
        if converged or not np.isfinite(distances[-1]):
            break
    ratios = [distances[m] / distances[m - 1]
              for m in range(1, len(distances)) if distances[m - 1] > 0]
    return current, IterationReport(len(distances), ratios, converged,
                                    distances[-1] if distances else np.inf)


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
        blended = scenario.with_fields(
            a=_combination(1 - lam, frozen.a, lam, scenario.a),
            sigma=_combination(1 - lam, frozen.sigma, lam, scenario.sigma))
        current, report = freeze_and_iterate(
            blended, x0, tree, basis, tol=tol, max_iter=max_iter,
            scheme=scheme, initial=current)
        reports.append(report)
        if not report.converged:
            raise ConvergenceError(
                f"continuation step at lambda={lam:g} did not converge "
                f"(last defect {report.final_defect:.3e})")
    return current, reports
