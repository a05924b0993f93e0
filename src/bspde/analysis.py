"""Audits of the checkable a-priori statements on discrete solutions.

Everything here consumes a solved ``SolutionPair`` and reports numbers the
commands print: fitted constants of the energy estimates, minima and
negative-part envelopes for the comparison principle, and mollified scenarios
for rough coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, StructuralError
from .scenario import CoefficientField, Scenario
from .solver import AdaptedField, LevelFields, SolutionPair, _expectation
# solve_tree, assemble_L and assemble_M stay bound here for code that
# instruments them by patching every bspde namespace that imports them
from .solver import solve_tree  # noqa: F401
from .space import SpectralBasis, assemble_L, assemble_M  # noqa: F401
from .wiener import WienerTree

Array = np.ndarray

ESTIMATE_TAGS = ("weak_est_2_5", "strong_est_2_7", "higher_est_2_9", "negpart_5_2")
_ZERO_TOL = 1e-10       # positivity: a negative part at or below this is zero
_ENVELOPE_SLACK = 0.05  # positivity: relative slack of the fitted envelope


@dataclass(frozen=True)
class EstimateReport:
    """One audited inequality: lhs <= C * rhs with the fitted C.

    ``passed`` says the fitted constant is finite (for ``negpart_5_2``, that
    the envelope holds).  ``e_sup_sq`` and ``sup_e_sq`` record both readings
    of the supremum term; the estimate itself uses E sup.
    """

    theorem_tag: str
    lhs: float
    rhs_data: float
    fitted_C: float
    passed: bool
    e_sup_sq: float
    sup_e_sq: float


def _source_field(scenario: Scenario, tree: WienerTree, basis: SpectralBasis) -> AdaptedField:
    fields = LevelFields(scenario, tree, basis)
    return AdaptedField(tree, basis, [
        np.broadcast_to(fields.source(level), (tree.levels[level].n_nodes, basis.n_modes))
        for level in range(tree.n_steps)])


def energy_audit(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
                 basis: SpectralBasis, theorem_tag: str = "weak_est_2_5",
                 order: int = 1) -> EstimateReport:
    """Fitted constant of one energy estimate on a solved pair,

        |||p|||_{n+2}^2 + |||q|||_{n+1}^2 + E sup ||p||_{n+1}^2
        against |||F|||_n^2 + E ||phi||_{n+1}^2,

    at n = -1 (weak_est_2_5), 0 (strong_est_2_7) or ``order`` (higher_est_2_9).

    The audit is diagnostic: a finite, refinement-stable fitted constant is
    evidence for the estimate at this discretisation, not a proof.
    """
    orders = {"weak_est_2_5": -1, "strong_est_2_7": 0, "higher_est_2_9": order}
    if theorem_tag not in orders:
        raise StructuralError(f"energy_audit does not handle tag {theorem_tag!r}")
    n = int(orders[theorem_tag])
    p_ord, q_ord, sup_ord, f_ord = n + 2, n + 1, n + 1, n

    F = _source_field(scenario, tree, basis)
    e_sup = solution.p.e_sup_norm_sq(sup_ord)
    sup_e = solution.p.sup_e_norm_sq(sup_ord)
    lhs = solution.p.time_norm_sq(p_ord) + solution.q.time_norm_sq(q_ord) + e_sup
    rhs = F.time_norm_sq(f_ord) + solution.p.level_expected_norm_sq(
        len(solution.p.levels) - 1, sup_ord)
    fitted = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return EstimateReport(theorem_tag, float(lhs), float(rhs), float(fitted),
                          bool(np.isfinite(fitted)), float(e_sup), float(sup_e))


@dataclass(frozen=True)
class PositivityReport:
    """Pointwise minimum plus the negative-part envelope audit.

    ``negpart_l2_per_level[k]`` is E int (p^-)^2 dx at level k (unnormalised
    torus integral).  The envelope fits the smallest C with

        E int (p^-)^2(t) <= e^{C (T-t)} [ E int (phi^-)^2 + E int int (F^-)^2 ]

    over the levels; when the data are nonnegative the right side vanishes
    and the envelope holds iff the negative parts are numerically zero.
    ``max_abs_value`` is max |p| over the grid and every node, the scale
    against which ``min_value`` is judged.
    """

    min_value: float
    negpart_l2_per_level: Array
    fitted_C: float
    envelope: EstimateReport
    max_abs_value: float


def _negpart_integral(values: Array, volume: float):
    """Unnormalised torus integral of (v^-)^2, per row of grid values."""
    return np.mean(np.minimum(values, 0.0) ** 2, axis=-1) * volume


def positivity_check(solution: SolutionPair, scenario: Scenario, tree: WienerTree,
                     basis: SpectralBasis) -> PositivityReport:
    """Grid minimum of p and the exponential envelope of its negative part."""
    volume = (2.0 * basis.domain_halfwidth) ** basis.dim_x
    N, dt, T = tree.n_steps, tree.dt, tree.horizon
    X = basis.grid_points

    min_value, max_abs_value = math.inf, 0.0
    negpart = np.zeros(N + 1)
    for level in range(N + 1):
        vals = basis.reconstruct(solution.p.levels[level])
        min_value = min(min_value, float(vals.min()))
        max_abs_value = max(max_abs_value, float(np.abs(vals).max()))
        negpart[level] = _expectation(tree.levels[level].prob,
                                      _negpart_integral(vals, volume))

    # data negative parts for the envelope's right side
    fields = LevelFields(scenario, tree, basis)

    def data_negpart(field_, level, t):
        vals = fields.level_map(level, [field_],
                                lambda s, states: field_.evaluate_states(t, X, states),
                                ("grid", field_))
        return _expectation(tree.levels[level].prob, _negpart_integral(vals, volume))

    phi_neg = data_negpart(scenario.phi, N, scenario.horizon)
    f_neg = np.array([data_negpart(scenario.F, level, tree.time_of(level))
                      for level in range(N)])

    # Envelope constant by through-origin log-linear regression: with
    # s = T - t and y = log(lhs/rhs), fit y ~ C s over the levels where both
    # sides are genuinely nonzero, then demand that e^{C s} rhs dominates lhs
    # everywhere (a small relative slack absorbs discretisation wiggle around
    # the fitted trend).  Zero data force zero negative parts outright.
    rhs_levels = np.array([phi_neg + dt * f_neg[level:].sum()
                           for level in range(N + 1)])
    ok = True
    ss, ys = [], []
    for level in range(N + 1):
        lhs = negpart[level]
        if rhs_levels[level] <= _ZERO_TOL:
            if lhs > _ZERO_TOL:
                ok = False
            continue
        s = T - tree.time_of(level)
        if lhs > _ZERO_TOL and s > 0:
            ss.append(s)
            ys.append(math.log(lhs / rhs_levels[level]))
    fitted_C = 0.0
    if ss:
        s_arr, y_arr = np.asarray(ss), np.asarray(ys)
        fitted_C = max(0.0, float((s_arr @ y_arr) / (s_arr @ s_arr)))
    if ok:
        for level in range(N + 1):
            rhs = rhs_levels[level]
            if rhs <= _ZERO_TOL:
                continue
            bound = math.exp(fitted_C * (T - tree.time_of(level))) * rhs
            if negpart[level] > bound * (1.0 + _ENVELOPE_SLACK) + _ZERO_TOL:
                ok = False
    envelope = EstimateReport(
        "negpart_5_2", float(negpart.max()), float(rhs_levels[0]),
        float(fitted_C), bool(ok), float(negpart.max()), float(negpart.max()))
    return PositivityReport(float(min_value), negpart, float(fitted_C), envelope,
                            max_abs_value)


@dataclass(frozen=True)
class MollifierConfig:
    """Smoothing index n: the bump kernel's radius is 1/n."""

    smoothing_index: int


def _bump_profile(r: Array) -> Array:
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def _kernel_shifts(basis: SpectralBasis, config: MollifierConfig):
    """Grid displacements (multiples of the spacing) within radius 1/n and
    their normalised kernel weights."""
    n = config.smoothing_index
    if n < 1:
        raise StructuralError("smoothing_index must be >= 1")
    radius = 1.0 / n
    h = 2.0 * basis.domain_halfwidth / basis.grid_per_dim
    reach = int(math.floor(radius / h))
    if reach < 1:
        raise DegenerateKernelError(
            f"kernel radius 1/{n} = {radius:g} is below the grid spacing {h:g}")
    axes = [np.arange(-reach, reach + 1)] * basis.dim_x
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=-1)
    dist = np.linalg.norm(offsets * h, axis=1) / radius
    weights = _bump_profile(dist)
    keep = weights > 0
    offsets, weights = offsets[keep], weights[keep]
    # offset 0 keeps weight e^-1, so the total is positive
    return offsets * h, weights / weights.sum()


def mollify(scenario: Scenario, config: MollifierConfig,
            basis: SpectralBasis) -> Scenario:
    """Scenario with a and sigma replaced by their discrete mollifications.

    The kernel is the scaled bump n^d zeta(n y) sampled on the collocation
    grid and renormalised to unit discrete mass, so the periodic convolution
    is a convex combination of shifted samples: bounds and moduli of
    continuity survive, and constant fields are fixed points.  The basis
    diagonalises that symmetric convolution: it is applied as the kernel's
    Fourier multiplier on the projected grid samples, and a request off the
    grid is answered by trigonometric interpolation of the result.  A radius below
    the grid spacing raises ``DegenerateKernelError``.
    """
    shifts, weights = _kernel_shifts(basis, config)
    # the symbol of sum_j w_j u(x - y_j) is sum_j w_j cos(k y_j): the kernel is symmetric
    symbol = np.cos(basis.freqs @ shifts.T) @ weights
    # convolution fixes constants exactly
    return scenario.with_fields(**{
        name: src if src.is_constant else _multiplier_field(src, symbol, basis)
        for name, src in (("a", scenario.a), ("sigma", scenario.sigma))})


def _multiplier_field(src: CoefficientField, symbol: Array,
                      basis: SpectralBasis) -> CoefficientField:
    """The field whose coefficients are those of ``src``'s grid samples times
    ``symbol``, one factor per mode (a smoothing kernel's Fourier
    multiplier): reconstructed on the grid, interpolated off it."""
    grid = basis.grid_points

    def at(X, vals):  # the grid samples (k, n_grid, *shape) of k states, at X
        coeffs = symbol * basis.project(vals.reshape(vals.shape[:2] + (-1,)),
                                        stacked=True).swapaxes(-1, -2)
        on_grid = X.shape == grid.shape and np.array_equal(X, grid)
        out = basis.reconstruct(coeffs) if on_grid else basis.evaluate_at(coeffs, X)
        return out.swapaxes(-1, -2).reshape((len(vals), len(X)) + src.shape)
    return CoefficientField.derived(
        lambda t, X, states: at(X, src.evaluate_states(t, grid, states)), src.shape, src)
