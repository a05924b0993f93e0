"""Shared constructors for the test suite."""

from __future__ import annotations

import inspect

import numpy as np

from bspde import CoefficientField, Scenario


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
    run = np.array([row_norm_sq_reference(field.basis, r, order) for r in field.levels[0]])
    for k in range(1, len(field.levels)):
        here = np.array([row_norm_sq_reference(field.basis, r, order)
                         for r in field.levels[k]])
        run = np.maximum(run[field.tree.levels[k].parents], here)
    prob = field.tree.levels[len(field.levels) - 1].prob
    return float(np.sum(prob * run))


def sup_e_norm_sq_reference(field, order=0) -> float:
    return max(level_expected_norm_sq_reference(field, k, order)
               for k in range(len(field.levels)))


def fields_csv_reference(solution, tree, basis) -> str:
    """``fields.csv`` text written one node, one grid point, one cell at a time."""
    def fmt(x):
        return f"{x:.12e}"

    d, dw = basis.dim_x, tree.dim_w
    header = (["level", "node"] + [f"x{i+1}" for i in range(d)]
              + ["p"] + [f"q{k+1}" for k in range(dw)])
    lines = [",".join(header)]
    X = basis.grid_points
    for level in range(tree.n_steps):
        for node in range(tree.levels[level].n_nodes):
            pv = basis.reconstruct(solution.p.levels[level][node]).real
            qv = [basis.reconstruct(solution.q.levels[level][node, k]).real
                  for k in range(dw)]
            for g in range(basis.n_grid):
                row = [str(level), str(node)]
                row += [fmt(X[g, i]) for i in range(d)]
                row.append(fmt(pv[g]))
                row += [fmt(qv[k][g]) for k in range(dw)]
                lines.append(",".join(row))
    return "\n".join(lines) + "\n"
