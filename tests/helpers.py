"""Shared constructors for the test suite."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace

import numpy as np

from bspde import (CoefficientField, PathHistory, Scenario, ValidationReport, assemble_L,
                   assemble_M, load_scenario_text)
from bspde.scenario import _N_HISTORIES, _probe_histories, _sample_points


def _lift_scalar_callable(fn, shape):
    """Let pointwise-scalar evaluators stand in for structured fields.

    A callable returning shape (n,) is embedded on the diagonal for square
    matrix shapes and broadcast across the trailing axes otherwise; callables
    already returning (n, *shape) pass through untouched.
    """
    if shape == ():
        return fn

    def lifted(*args):
        out = np.asarray(fn(*args), dtype=float)
        n = out.shape[0]
        if out.shape == (n, *shape):
            return out
        if out.ndim != 1:
            return out  # let the field's own shape check complain
        if len(shape) == 2 and shape[0] == shape[1]:
            return out[:, None, None] * np.eye(shape[0])
        return np.broadcast_to(out.reshape((n,) + (1,) * len(shape)), (n, *shape)).copy()

    return lifted


def make_field(value, shape):
    """Coerce scalars / callables / arrays into a CoefficientField.

    Scalars fill the diagonal for square matrix shapes and broadcast
    otherwise; callables dispatch on arity (3 positional arguments means
    adapted, 2 means deterministic time-space).
    """
    if isinstance(value, CoefficientField):
        return value
    if callable(value):
        n_args = sum(1 for p in inspect.signature(value).parameters.values()
                     if p.default is inspect.Parameter.empty)
        lifted = _lift_scalar_callable(value, shape)
        if n_args >= 3:
            return CoefficientField.adapted(lifted, shape=shape)
        return CoefficientField.of_tx(lifted, shape=shape)
    arr = np.asarray(value, dtype=float)
    if arr.shape == () and len(shape) == 2 and shape[0] == shape[1]:
        return CoefficientField.constant(float(arr) * np.eye(shape[0]), shape=shape)
    if arr.shape == () :
        return CoefficientField.constant(np.full(shape, float(arr)), shape=shape)
    return CoefficientField.constant(arr.reshape(shape), shape=shape)


def make_scenario(d=1, d1=1, T=0.5, L=np.pi, K=2.0, kappa=0.25,
                  a=0.5, b=0.0, c=0.0, sigma=0.0, nu=0.0, F=0.0, phi=0.0,
                  form="non_divergence", **extra):
    """One-stop Scenario builder with constant-heat defaults."""
    return Scenario(
        dim_x=d,
        dim_w=d1,
        horizon=T,
        domain_halfwidth=L,
        a=make_field(a, (d, d)),
        b=make_field(b, (d,)),
        c=make_field(c, ()),
        sigma=make_field(sigma, (d, d1)),
        nu=make_field(nu, (d1,)),
        F=make_field(F, ()),
        phi=make_field(phi, ()),
        bound_K=K,
        ellipticity_kappa=kappa,
        form=form,
        **extra,
    )


# every adapted field reads w only, as parsed fields do
MARKOV_TEXT = {1: """
[problem]
d = 1
d1 = 1
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
[coefficients]
a = 0.66 + 0.06*sin(x1 + 1.0) + 0.08*sin(w1 + 0.5)
b = [0.14*cos(x1 + 5.6) + 0.05*sin(w1 + 5.4)]
c = 0.11 + 0.03*cos(w1 + 6.2)
sigma = [[0.27 + 0.06*sin(w1 + 2.2)]]
nu = [0.05*cos(w1 + 0.46)]
[data]
F = 0.48*(1 + 0.37*sin(x1 + 2.5))*(1 + 0.39*cos(w1 + 0.5))
phi = 1.4 + 0.56*sin(x1 + 0.24) + 0.38*sin(w1 + 3.0)
""", 2: """
[problem]
d = 1
d1 = 2
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
[coefficients]
a = 0.6 + 0.05*sin(x1 + w2) + 0.07*sin(w1)
sigma = [[0.2 + 0.05*sin(w1), 0.1 + 0.03*cos(w2)]]
nu = [0.05*cos(w1 - w2), 0.02]
[data]
F = cos(x1 - w1) + 0.3*w2
phi = sin(x1) + 1.5 + 0.2*w1*w2
"""}


# a 2-d divergence-form scenario on two Wiener dimensions whose matrix,
# vector and scalar fields all read w; c vanishes where w1 = 0
MARKOV_2D_TEXT = """
[problem]
d = 2
d1 = 2
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
form = divergence
[coefficients]
a = [[0.62 + 0.05*sin(x1 + w2), 0.02*cos(x2 - w1)], [0.02*cos(x2 - w1), 0.6 + 0.04*cos(x2 + w1)]]
b = [0.05*sin(x2 + w1), 0.04*cos(x1)]
c = 0.05*sin(w1)*(1 + 0.3*cos(x1))
sigma = [[0.1 + 0.02*sin(w1), 0.05], [0.03*cos(x1 + w2), 0.1]]
nu = [0.03*cos(w1 - w2), 0.02*sin(x2)]
[data]
F = cos(x1 - w1) + 0.3*w2*sin(x2)
phi = sin(x1 + x2) + 1.5 + 0.2*w1*w2
"""


# the seed-0 input of the benchmark's adapted_tree workload
ADAPTED_TREE_TEXT = """
[problem]
d = 1
d1 = 1
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
form = non_divergence
[coefficients]
a = 0.6639 + 0.0622*sin(x1 + 0.9944) + 0.076*sin(w1 + 0.5302)
b = [0.1397*cos(x1 + 5.6243) + 0.0468*sin(w1 + 5.4394)]
c = 0.113 + 0.0318*cos(w1 + 6.194)
sigma = [[0.2746 + 0.0573*sin(w1 + 2.1773)]]
nu = [0.0502*cos(w1 + 0.4618)]
[data]
F = 0.4776*(1 + 0.3687*sin(x1 + 2.5229))*(1 + 0.3915*cos(w1 + 0.4998))
phi = 1.4013 + 0.5612*sin(x1 + 0.242) + 0.3838*sin(w1 + 3.0456)
"""

# the seed-0 input of the benchmark's det_ops_2d workload (2-d, divergence
# form) with ``+ 0.02*sin(w1)`` in c, so that its operators are Markov
DIVERGENCE_MARKOV_TEXT = """
[problem]
d = 2
d1 = 1
T = 0.5
L = 3.14159265358979
K = 2.0
kappa = 0.3
form = divergence
[coefficients]
a = [[0.5933 + 0.0865*sin(x1 + 5.4997)*cos(x2 + 0.4803), 0.0535*cos(x1 + x2 + 2.7405)], [0.0535*cos(x1 + x2 + 2.7405), 0.6035 + 0.0687*cos(x1 + 0.3736)]]
b = [0.0614*sin(x2 + 3.9112), 0.0529*cos(x1 + 2.0646)]
c = 0.0802 + 0.0308*sin(x1 + x2 + 6.203) + 0.02*sin(w1)
sigma = [[0.1615 + 0.0309*sin(x1 + 6.1367)], [0.0729*cos(x2 + 5.3007)]]
nu = [0.0329*cos(x1 + 6.0851)]
[data]
F = 0.3892*(1 + 0.361*sin(x1 + 3.2747)*cos(x2 + 4.1744))
phi = 1.5205 + 0.4023*sin(x1 + 5.6364)*cos(x2 + 1.3959) + 0.1432*sin(w1 + 1.7124)
"""


def markov_scenario(dim_w):
    return load_scenario_text(MARKOV_TEXT[dim_w])[0]


def declared_time_dependent(scenario):
    """The same scenario with no field declared t-free: every read runs per level."""
    return scenario.with_fields(**{
        name: replace(getattr(scenario, name), reads=getattr(scenario, name).reads | {"t"})
        for name in ("a", "b", "c", "sigma", "nu", "F", "phi")})


def counting(field_):
    """``field_`` with a read that logs the time it is given once per state
    it reads, and the log.

    The read reads the time it logs, so the wrapped field is not t-free and
    is evaluated at every level, as a field that reads ``t`` is.
    """
    calls = []

    def fn(t, X, states):
        calls.extend([t] * len(states))
        return field_.fn(t, X, states)
    return replace(field_, fn=fn, reads=field_.reads | {"t"}), calls


def wiener_values(tree, level):
    """Every node's Wiener value ``(n_level, dim_w)``: the sum of its
    increments, the same bits as the engine's state keys."""
    return tree.level_increments(level).sum(axis=1)


def inner(basis, u, v, order=0) -> float:
    """The order-``order`` Sobolev inner product of coefficient vectors."""
    w = basis.sobolev_weight(order)
    return float(np.sum(w * u * v))


def ensemble_history(ensemble, path, step) -> PathHistory:
    """The history of one path of a ``PathEnsemble`` up to ``step``."""
    return PathHistory.from_increments(ensemble.increments[path, :step, :], ensemble.dt) \
        if step > 0 else PathHistory.empty(ensemble.dim_w)


# -- per-node reference tree --------------------------------------------------
#
# A tree stores its branch pattern once and one probability per node.  These
# are the per-node arrays it replaced, grown from the same pattern by the same
# arithmetic, and the parent walks that read them: the reference the pattern
# tree must reproduce bit for bit.

@dataclass(frozen=True)
class ReferenceLevel:
    """One level, node by node: ``parents[i]`` indexes the previous level (-1
    at the root), ``increments[i]`` and ``weights[i]`` are the edge from the
    parent, ``prob[i]`` the unconditional node probability."""

    parents: np.ndarray
    increments: np.ndarray
    weights: np.ndarray
    prob: np.ndarray


def reference_levels(tree) -> list[ReferenceLevel]:
    """Every level of ``tree`` with its per-node arrays."""
    c = tree.n_children
    levels = [ReferenceLevel(np.array([-1]), np.zeros((1, tree.dim_w)), np.ones(1),
                             np.ones(1))]
    for _ in range(tree.n_steps):
        prev = levels[-1]
        n_prev = len(prev.prob)
        weights = np.tile(tree.weights, n_prev)
        levels.append(ReferenceLevel(np.repeat(np.arange(n_prev), c),
                                     np.tile(tree.increments, (n_prev, 1)), weights,
                                     np.repeat(prev.prob, c) * weights))
    return levels


def reference_level_increments(levels, level) -> np.ndarray:
    """Every node's increments, ``(n_level, level, dim_w)``, by a parent walk."""
    idx = np.arange(len(levels[level].prob))
    incs = np.zeros((len(idx), level, levels[0].increments.shape[1]))
    for lev in range(level, 0, -1):
        incs[:, lev - 1] = levels[lev].increments[idx]
        idx = levels[lev].parents[idx]
    return incs


def reference_history(levels, level, index, dt) -> PathHistory:
    """One node's increment prefix, walking up its parents."""
    incs = np.zeros((level, levels[0].increments.shape[1]))
    for lev in range(level, 0, -1):
        incs[lev - 1] = levels[lev].increments[index]
        index = int(levels[lev].parents[index])
    return PathHistory(level * dt, dt, incs, incs.sum(axis=0))


def reference_expectations(levels, level, values, dt):
    """``E[values | node]`` and ``E[values dW | node] / dt`` from the
    per-node edge weights and increments of level + 1."""
    n, nxt = len(levels[level].prob), levels[level + 1]
    c = len(nxt.prob) // n
    vals = np.asarray(values)
    vals = vals.reshape((n, c) + vals.shape[1:])
    w, dw = nxt.weights.reshape(n, c), nxt.increments.reshape(n, c, -1)
    return (np.einsum("nc,nc...->n...", w, vals),
            np.einsum("nc,nck,nc...->nk...", w, dw, vals) / dt)


def every_noise_term_solve(scenario, tree, basis, theta=1.0):
    """p and q levels of ``solve_tree``'s theta scheme with every
    ``dt M^k q^k`` term added at every level, zero rows included, and the
    expectations of the per-node arrays of ``reference_levels``: a noise-free
    solve, which adds no such term, must give the same bits."""
    from bspde import LevelFields
    from bspde.solver import _apply

    fields, ref, dt = LevelFields(scenario, tree, basis), reference_levels(tree), tree.dt
    p = np.array(np.broadcast_to(fields.terminal(), (len(ref[-1].prob), basis.n_modes)))
    ps, qs = [p], []
    for level in range(tree.n_steps - 1, -1, -1):
        Ep, q = reference_expectations(ref, level, p, dt)
        ops = fields.operators(level)
        rhs = Ep + dt * fields.source(level)
        if theta < 1.0:
            rhs += dt * (1.0 - theta) * _apply(ops.L, Ep, ops.groups)
        for j in range(q.shape[1]):
            rhs += dt * _apply(ops.Ms[:, j], q[:, j], ops.groups)
        inverse = np.linalg.inv(np.eye(basis.n_modes) - theta * dt * ops.L)
        p = _apply(inverse, rhs, ops.groups)
        ps.insert(0, p)
        qs.insert(0, q)
    return ps, qs


# -- full-probe validation -----------------------------------------------------

def validate_reference(scenario, modulus):
    """The sampled audit of ``validate`` read at every probe (t, x, history),
    whatever the coefficients read: the loop that ``validate`` must equal
    field by field when it reads each distinct state once."""
    ts, xs = _sample_points(scenario)
    d = scenario.dim_x
    kappa, K = scenario.ellipticity_kappa, scenario.bound_K
    slack = 1e-9
    symmetry_ok = bounds_ok = modulus_ok = True
    min_margin = np.inf
    count = 0
    if modulus is not None:
        radii = np.linspace(0.0, 2 * scenario.domain_halfwidth * np.sqrt(d), 17)
        gvals = modulus(radii)
        if not (abs(gvals[0]) <= 1e-12 and np.all(np.diff(gvals) >= -1e-12)
                and np.all(gvals >= -1e-12)):
            modulus_ok = False
    idx = np.arange(len(xs)) if len(xs) <= 64 else np.arange(len(xs))[::3]
    for t in ts:
        hists = _probe_histories(scenario, float(t), _N_HISTORIES, seed=9 + int(1000 * t))
        a_vals, sig_vals, b_vals, c_vals, nu_vals = (
            f.evaluate_states(t, xs, hists)
            for f in (scenario.a, scenario.sigma, scenario.b, scenario.c, scenario.nu))
        count += len(hists) * len(xs)
        asym = np.max(np.abs(a_vals - np.swapaxes(a_vals, -1, -2)), axis=(1, 2, 3))
        if np.any(asym > slack * (1.0 + np.max(np.abs(a_vals), axis=(1, 2, 3)))):
            symmetry_ok = False
        a_sym = 0.5 * (a_vals + np.swapaxes(a_vals, -1, -2)).reshape((-1, d, d))
        sig = sig_vals.reshape((-1,) + scenario.sigma.shape)
        gram = np.einsum("nik,njk->nij", sig, sig)
        margin = np.linalg.eigvalsh(2.0 * a_sym - gram - kappa * np.eye(d))
        min_margin = min(min_margin, float(margin.min()))
        if np.linalg.eigvalsh(2.0 * a_sym).max() > K + slack:
            bounds_ok = False
        for vals in (a_vals, b_vals, c_vals, sig_vals, nu_vals):
            if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > K + slack:
                bounds_ok = False
        if modulus is not None and modulus_ok:
            xa, aa, ss = xs[idx], a_vals[:, idx], sig_vals[:, idx]
            diff_x = np.linalg.norm(xa[:, None, :] - xa[None, :, :], axis=-1)
            diff_a = np.sqrt(np.sum((aa[:, :, None] - aa[:, None, :]) ** 2, axis=(-1, -2)))
            diff_s = np.sqrt(np.sum((ss[:, :, None] - ss[:, None, :]) ** 2, axis=(-1, -2)))
            cap = modulus(diff_x) + slack
            if np.any(diff_a > cap) or np.any(diff_s > cap):
                modulus_ok = False
    return ValidationReport(symmetry_ok=symmetry_ok, superparabolic_ok=bool(min_margin >= 0.0),
                            min_margin=float(min_margin), bounds_ok=bounds_ok,
                            modulus_ok=modulus_ok, sample_count=count)


# -- per-node references ------------------------------------------------------
#
# The readers of a solved pair reduce a whole tree level at a time.  These are
# the per-node formulas they replaced, kept as the reference the level-wide
# versions must reproduce digit for digit.

def row_norm_sq_reference(basis, row, order) -> float:
    """||row||_order^2 of one node's row, noise components summed."""
    if row.ndim == 1:
        return float(basis.norm_sq(row, order))
    return float(sum(basis.norm_sq(comp, order) for comp in row))


def level_expected_norm_sq_reference(field, level, order=0) -> float:
    prob = field.tree.levels[level].prob
    return float(sum(p * row_norm_sq_reference(field.basis, row, order)
                     for p, row in zip(prob, field.levels[level])))


def time_norm_sq_reference(field, order=0) -> float:
    n = min(len(field.levels), field.tree.n_steps)
    return float(field.tree.dt * sum(
        level_expected_norm_sq_reference(field, k, order) for k in range(n)))


def e_sup_norm_sq_reference(field, order=0) -> float:
    """The running maximum carried node by node along the per-node parents of
    ``reference_levels``, then averaged over the last level node by node."""
    levels = reference_levels(field.tree)
    run = [row_norm_sq_reference(field.basis, r, order) for r in field.levels[0]]
    for k in range(1, len(field.levels)):
        run = [max(run[parent], row_norm_sq_reference(field.basis, r, order))
               for parent, r in zip(levels[k].parents, field.levels[k])]
    prob = levels[len(field.levels) - 1].prob
    return float(sum(p * r for p, r in zip(prob, run)))


def sup_e_norm_sq_reference(field, order=0) -> float:
    return max(level_expected_norm_sq_reference(field, k, order)
               for k in range(len(field.levels)))


def _d_synth(S, freqs, i):
    """Grid values of D_i u from u's cos/sin coordinates: D_i maps u to -k_i
    times u reversed (cos and sin of each mode pair trade places)."""
    return (S * -freqs[:, i])[:, ::-1]


def _d_rows(freqs, i, part):
    """D_i of every column of ``part``: -k_i times its rows reversed."""
    return (-freqs[:, i])[:, None] * part[::-1]


def state_samples(scenario, t, history, basis):
    """Every coefficient's grid samples in the one state of ``history``,
    stacked as k = 1, as ``assemble_L`` and ``assemble_M`` take them."""
    return {name: f.evaluate(t, basis.grid_points, history)[None]
            for name, f in scenario.coefficient_fields().items()}


def assemble_L_at(scenario, t, history, basis):
    """``assemble_L`` in the one state of ``history``: its (m, m) matrix."""
    return assemble_L(scenario, state_samples(scenario, t, history, basis), basis)[0]


def assemble_M_at(scenario, t, history, basis):
    """``assemble_M`` in the one state of ``history``: the list of its M^k."""
    return list(assemble_M(scenario, state_samples(scenario, t, history, basis), basis)[0])


def assemble_L_reference(scenario, t, history, basis):
    """``space.assemble_L`` as four hand-written grid-product loops, one per
    form and order, with the derivative synthesis matrices built inline; the
    term-table assembly must reproduce it byte for byte."""
    d = scenario.dim_x
    X, S, A, freqs = basis.grid_points, basis._S, basis._A, basis.freqs
    a = scenario.a.evaluate(t, X, history)
    b = scenario.b.evaluate(t, X, history)
    c = scenario.c.evaluate(t, X, history)

    def sd(i):
        return _d_synth(S, freqs, i)

    low = np.zeros((basis.n_grid, basis.n_modes))
    for i in range(d):
        if np.any(b[:, i]):
            low += b[:, i, None] * sd(i)
    if np.any(c):
        low -= c[:, None] * S

    if scenario.form == "non_divergence":
        body = low.copy()
        for i in range(d):
            for j in range(d):
                if np.any(a[:, i, j]):
                    body += a[:, i, j, None] * (S * (-freqs[:, i] * freqs[:, j])[None, :])
        return A @ body

    L = A @ low
    for i in range(d):
        flux = np.zeros((basis.n_grid, basis.n_modes))
        for j in range(d):
            if np.any(a[:, i, j]):
                flux += a[:, i, j, None] * sd(j)
        if np.any(flux):
            L += _d_rows(freqs, i, A @ flux)
    return L


def assemble_M_reference(scenario, t, history, basis):
    """``space.assemble_M`` as the hand-written loops of each form."""
    d, dw = scenario.dim_x, scenario.dim_w
    X, S, A, freqs = basis.grid_points, basis._S, basis._A, basis.freqs
    sig = scenario.sigma.evaluate(t, X, history)
    nu = scenario.nu.evaluate(t, X, history)

    out = []
    for k in range(dw):
        if scenario.form == "non_divergence":
            body = np.zeros((basis.n_grid, basis.n_modes))
            for i in range(d):
                if np.any(sig[:, i, k]):
                    body += sig[:, i, k, None] * _d_synth(S, freqs, i)
            if np.any(nu[:, k]):
                body += nu[:, k, None] * S
            out.append(A @ body)
        else:
            Mk = np.zeros((basis.n_modes, basis.n_modes))
            for i in range(d):
                if np.any(sig[:, i, k]):
                    Mk += _d_rows(freqs, i, A @ (sig[:, i, k, None] * S))
            if np.any(nu[:, k]):
                Mk += A @ (nu[:, k, None] * S)
            out.append(Mk)
    return out


def higher_regularity_reference(scenario, tree, basis, alpha, base):
    """The derived pair of ``higher_regularity_solve`` with its source built one
    node, one history and one coefficient component at a time.

    The level-wide source transforms whole level arrays with one matrix
    product where this makes one vector product per node, so the two agree
    to round-off, not digit for digit.
    """
    from bspde import LevelFields, SchemeConfig, backward_solve

    d, dw = scenario.dim_x, scenario.dim_w
    X = basis.grid_points
    zero = CoefficientField.zero
    top_scn = scenario.with_fields(b=zero((d,)), c=zero(()), nu=zero((dw,)))

    def D(gamma, v, *axes):
        """D^gamma, then D_i for each i of ``axes``, of the coefficients v."""
        return basis.derivative(tuple(g + axes.count(j) for j, g in enumerate(gamma)), v)

    def active(field_, comp):
        return not field_.is_constant or bool(np.any(field_.value[comp]))

    def derivative(field_, beta, comp, t, hist):
        vals = field_.evaluate(t, X, hist)[(slice(None),) + comp]
        if sum(beta) == 0:
            return vals
        return basis.reconstruct(D(beta, basis.project(vals)))

    def node_source(t, hist, p, q):
        grid = np.zeros(basis.n_grid)
        grid += basis.reconstruct(D(alpha.alpha, basis.project(scenario.F.evaluate(t, X, hist))))
        for beta, coef in alpha.sub_indices():
            gamma = tuple(a - b for a, b in zip(alpha.alpha, beta))
            if sum(beta) >= 1:
                for i in range(d):
                    for j in range(d):
                        if active(scenario.a, (i, j)):
                            da = derivative(scenario.a, beta, (i, j), t, hist)
                            grid += coef * da * basis.reconstruct(D(gamma, p, i, j))
                    for k in range(dw):
                        if active(scenario.sigma, (i, k)):
                            ds = derivative(scenario.sigma, beta, (i, k), t, hist)
                            grid += coef * ds * basis.reconstruct(D(gamma, q[k], i))
            for i in range(d):
                if active(scenario.b, (i,)):
                    db = derivative(scenario.b, beta, (i,), t, hist)
                    grid += coef * db * basis.reconstruct(D(gamma, p, i))
            if active(scenario.c, ()):
                dc = derivative(scenario.c, beta, (), t, hist)
                grid -= coef * dc * basis.reconstruct(D(gamma, p))
            for k in range(dw):
                if active(scenario.nu, (k,)):
                    dn = derivative(scenario.nu, beta, (k,), t, hist)
                    grid += coef * dn * basis.reconstruct(D(gamma, q[k]))
        return basis.project(grid)

    def source(level):
        t = tree.time_of(level)
        return np.stack([node_source(t, tree.history(level, i), p, q) for i, (p, q) in
                         enumerate(zip(base.p.levels[level], base.q.levels[level]))])

    terminal = LevelFields(scenario, tree, basis).terminal()
    return backward_solve(tree, basis, SchemeConfig(), D(alpha.alpha, terminal),
                          LevelFields(top_scn, tree, basis).operators, source)


def regression_reference(scenario, ensemble, basis, regression_basis_size=4,
                         scheme=None):
    """p0 and the per-step path means of q from a regression solve that keeps
    every path's p and q, and fits p and each ``p dW^k / dt`` separately, each
    by its own ``np.linalg.lstsq``.

    The package projects the stacked targets with one QR per step, so the two
    agree to round-off, not digit for digit.
    """
    from bspde import LevelFields, SchemeConfig
    from bspde.solver import _BLOCK_ENTRIES, _level_step, _monomial_features

    def fit(design, target):
        if design is None:  # t = 0: every path has the same state
            return np.broadcast_to(target.mean(axis=0), target.shape)
        beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        assert rank == design.shape[1], "rank-deficient design"
        return design @ beta

    scheme = scheme or SchemeConfig()
    N, dt, theta = ensemble.n_steps, ensemble.dt, scheme.theta
    n_paths, nm, dw = ensemble.n_paths, basis.n_modes, ensemble.dim_w
    fields = LevelFields(scenario, ensemble, basis)
    size = (n_paths if scenario.coefficients_deterministic
            else max(1, _BLOCK_ENTRIES // nm ** 2))
    blocks = [(sl, LevelFields(scenario, ensemble.select(sl), basis))
              for sl in (slice(j, j + size) for j in range(0, n_paths, size))]

    p_levels = [None] * (N + 1)
    q_levels = [None] * N
    p_next = np.array(np.broadcast_to(fields.terminal(), (n_paths, nm)))
    p_levels[N] = p_next.copy()
    for step in range(N - 1, -1, -1):
        states = ensemble.increments[:, :step, :].sum(axis=1)
        design = None if step == 0 else _monomial_features(states, regression_basis_size)
        Ep = fit(design, p_next)
        dW = ensemble.increments[:, step, :]
        q = np.empty((n_paths, dw, nm))
        for k in range(dw):
            q[:, k, :] = fit(design, p_next * (dW[:, k] / dt)[:, None])
        fhat = np.broadcast_to(fields.source(step), (n_paths, nm))
        p_here = np.concatenate([
            _level_step(blk.operators(step), Ep[sl], q[sl], fhat[sl], dt, theta, step,
                        sl.start)
            for sl, blk in blocks])
        p_levels[step] = p_here
        q_levels[step] = q
        p_next = p_here
    return p_levels[0].mean(axis=0), np.stack([q.mean(axis=0) for q in q_levels])


def mollify_reference(field_, basis, config, t, X, history=None):
    """The mollified ``field_`` at the points ``X``, computed as a sum of
    periodically shifted grid samples (one ``np.roll`` per offset and axis)
    and, off the grid, by trigonometric interpolation of that sum.

    The package applies the same convolution as a Fourier multiplier, so the
    two agree to round-off, not digit for digit.
    """
    from bspde.analysis import _kernel_shifts

    shifts, weights = _kernel_shifts(basis, config)
    h = 2.0 * basis.domain_halfwidth / basis.grid_per_dim
    offsets = np.rint(shifts / h).astype(int)
    grid = basis.grid_points
    vals = field_.evaluate(t, grid, history)
    cube = vals.reshape((basis.grid_per_dim,) * basis.dim_x + vals.shape[1:])
    conv = np.zeros_like(cube)
    for off, w in zip(offsets, weights):
        shifted = cube
        for axis, o in enumerate(off):
            if o:
                shifted = np.roll(shifted, int(o), axis=axis)
        conv += w * shifted
    conv = conv.reshape(vals.shape)
    if X.shape == grid.shape and np.array_equal(X, grid):
        return conv
    coeffs = basis.project(conv.reshape(len(conv), -1))
    return basis.evaluate_at(coeffs.T, X).T.reshape((len(X),) + conv.shape[1:])


def picard_reference(scenario, freeze_point, tree, basis, tol=1e-9, max_iter=40,
                     scheme=None, initial=None):
    """``freeze_and_iterate`` with a fresh provider for every solve and the
    Picard source tabulated over all levels before each step, and the
    perturbation's coefficients written as plain differences f - f0.

    The package holds each level's operators and source for the call, reads
    the source level by level and writes f - f0 as (-1) f0 + 1 f, with the
    same IEEE results, so the two agree digit for digit.
    """
    from bspde import (IterationReport, LevelFields, SchemeConfig, backward_solve,
                       freeze, mixed_norm_sq, pair_difference)
    from bspde.solver import _generator

    scheme = scheme or SchemeConfig()
    frozen = freeze(scenario, freeze_point)

    def difference(f, f0):
        return CoefficientField.derived(
            lambda t, X, states: f.evaluate_states(t, X, states) - f0.evaluate_states(t, X, states),
            f.shape, f, f0)

    def frozen_solve(source_levels=None):
        fields = LevelFields(frozen, tree, basis)
        source = fields.source if source_levels is None else source_levels.__getitem__
        return backward_solve(tree, basis, scheme, fields.terminal(), fields.operators,
                              source)

    current = initial if initial is not None else frozen_solve()
    distances = []
    converged = False
    for _ in range(max_iter):
        pert = scenario.with_fields(a=difference(scenario.a, frozen.a),
                                    sigma=difference(scenario.sigma, frozen.sigma))
        fields, pert_fields = LevelFields(scenario, tree, basis), LevelFields(pert, tree, basis)
        sources = [_generator(pert_fields.operators(level), current.p.levels[level],
                              current.q.levels[level], fields.source(level))
                   for level in range(tree.n_steps)]
        nxt = frozen_solve(sources)
        distances.append(float(np.sqrt(mixed_norm_sq(pair_difference(nxt, current)))))
        current = nxt
        converged = distances[-1] <= tol
        if converged or not np.isfinite(distances[-1]):
            break
    ratios = [distances[m] / distances[m - 1]
              for m in range(1, len(distances)) if distances[m - 1] > 0]
    return current, IterationReport(len(distances), ratios, converged,
                                    distances[-1] if distances else np.inf)


def weak_residual(solution, scenario, tree, basis, test_field, scheme=None):
    """Signed defect of the one-step identity paired against a test field.

    The pairing uses the divergence-form operators (the integration by parts
    is exact in the spectral representation), so for divergence-form or
    constant-coefficient scenarios this matches the strong identity to
    round-off; test fields orthogonal to the active modes give exactly zero.
    """
    from bspde.solver import _defects
    div_scn = scenario.with_fields(form="divergence")
    return [np.sum(test_field.coeffs * d, axis=-1)
            for d in _defects(solution, div_scn, tree, basis, scheme)]
