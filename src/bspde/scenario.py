"""Problem data for linear parabolic backward stochastic PDEs on the torus.

A scenario bundles the coefficient fields of

    dp = -[ div(a grad p) + b.grad p - c p + (M q + nu q) + F ] dt + q dW

(or its non-divergence counterpart a:D2p + b.grad p - c p + sigma.grad q + nu q)
together with the structural constants: the ellipticity floor kappa and the
uniform bound K of the standing assumption

    kappa I + sigma sigma^T <= 2 a <= K I,   0 < kappa < 1 < K.

Coefficients may be constant, or functions of x that declare what else they
read: t, the current Wiener value w, or the whole W-history
(``CoefficientField.reads``).  Nothing here knows about discretisation: the
engine (``solver.LevelFields``) reads a field in all of a level's states at
once through ``CoefficientField.evaluate_states``, and the dense oracle one
history at a time through ``CoefficientField.evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import StructuralError

Array = np.ndarray

READS = frozenset({"t", "w", "history"})  # what a field may read besides x
FORMS = ("divergence", "non_divergence")
_N_HISTORIES = 3  # probe histories per sampled time of an adapted scenario


@dataclass(frozen=True)
class PathHistory:
    """Discrete Wiener history prefix: elapsed increments and their running sum.

    ``increments`` has one row per elapsed step (shape ``(n_elapsed, dim_w)``);
    ``w`` is the current value of the driving process, i.e. the row sum.
    ``t`` is the time the history reaches.
    """

    t: float
    dt: float
    increments: Array
    w: Array

    @classmethod
    def empty(cls, dim_w: int) -> "PathHistory":
        return cls(0.0, 0.0, np.zeros((0, dim_w)), np.zeros(dim_w))

    @classmethod
    def from_increments(cls, increments: Array, dt: float) -> "PathHistory":
        increments = np.atleast_2d(np.asarray(increments, dtype=float))
        t = dt * increments.shape[0]
        return cls(t, dt, increments, increments.sum(axis=0))

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True)
class CoefficientField:
    """One coefficient of the equation, tagged by what it reads.

    ``shape`` is the component shape: ``()`` scalar, ``(d,)`` drift,
    ``(d, d)`` diffusion matrix, ``(d, dim_w)`` noise coupling.  A constant
    holds its array in ``value``; any other field has one read, ``fn(t, X,
    states) -> (k, n_points, *shape)``, and ``reads``, a subset of ``READS``,
    says what it may read besides ``X``, and so which states it is given: a
    field that reads neither ``"w"`` nor ``"history"`` is deterministic and
    gets one state, a (1, 0) array; one that reads ``"w"`` alone is Markov
    and gets the k states' Wiener values, (k, dim_w); any other gets k
    ``PathHistory``.  One that does not read ``"t"`` is t-free, and
    ``LevelFields`` reads it once per solve, not once per level.  Left out,
    ``reads`` is empty for a constant and ``{"t", "history"}``, safe for any
    library callable, otherwise; ``of_tx`` and ``adapted`` wrap a one-state
    callable.
    """

    shape: tuple
    fn: Callable | None = None
    value: Array | None = None
    reads: frozenset | None = None

    def __post_init__(self):
        if self.reads is None:
            object.__setattr__(self, "reads", frozenset() if self.value is not None
                               else frozenset({"t", "history"}))
        if not self.reads <= READS:
            raise StructuralError(f"a field reads only {sorted(READS)}, not {set(self.reads)}")

    @classmethod
    def constant(cls, value, shape: tuple | None = None) -> "CoefficientField":
        value = np.asarray(value, dtype=float)
        if shape is not None and value.shape != tuple(shape):
            raise StructuralError(
                f"constant coefficient has shape {value.shape}, declared {tuple(shape)}"
            )
        return cls(value.shape, value=value)

    @classmethod
    def of_tx(cls, fn: Callable, shape: tuple = (),
              t_free: bool = False) -> "CoefficientField":
        """The deterministic field of ``fn(t, X)``."""
        shape = tuple(shape)
        return cls(shape, fn=lambda t, X, states: _normalise(fn(t, X), len(X), shape)[None],
                   reads=frozenset() if t_free else frozenset({"t"}))

    @classmethod
    def adapted(cls, fn: Callable, shape: tuple = (), markov: bool = False,
                t_free: bool = False) -> "CoefficientField":
        """The field of ``fn(t, X, history)``, called once per state: a
        Markov ``fn`` reads only ``history.w``, and gets a stand-in history
        that carries ``w`` alone."""
        shape = tuple(shape)

        def read(t, X, states):
            hists = [PathHistory(t, 0.0, states[:0], w) for w in states] if markov else states
            return np.stack([_normalise(fn(t, X, h), len(X), shape) for h in hists])
        reads = {"w" if markov else "history"} | (set() if t_free else {"t"})
        return cls(shape, fn=read, reads=frozenset(reads))

    @classmethod
    def derived(cls, fn: Callable, shape: tuple, *inputs: "CoefficientField"
                ) -> "CoefficientField":
        """The field whose read ``fn(t, X, states)`` computes it from the
        fields ``inputs``' ``evaluate_states``: ``fn`` reads ``t`` and the
        states only through them."""
        return cls(tuple(shape), fn=fn, reads=reads_of(inputs))

    @classmethod
    def zero(cls, shape: tuple = ()) -> "CoefficientField":
        return cls.constant(np.zeros(shape))

    @property
    def is_deterministic(self) -> bool:
        return not self.reads & {"w", "history"}

    @property
    def markov(self) -> bool:
        return "w" in self.reads and "history" not in self.reads

    @property
    def t_free(self) -> bool:
        return "t" not in self.reads

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    @property
    def is_zero(self) -> bool:
        return self.is_constant and not np.any(self.value)

    def evaluate(self, t: float, x_points: Array, history: PathHistory | None = None) -> Array:
        """Values at ``x_points`` (shape ``(n_points, d)``) in one history, as
        a fresh ``(n_points, *shape)`` array: row 0 of ``evaluate_states``."""
        x_points = np.asarray(x_points, dtype=float)
        if x_points.ndim != 2:
            raise StructuralError("x_points must be a (n_points, dim_x) array")
        if not self.is_deterministic:
            if history is None:
                raise ValueError("adapted coefficient needs a Wiener history")
            if history.t + 1e-12 < t:
                raise ValueError(
                    f"history covers [0, {history.t:g}] but the field is evaluated at t={t:g}"
                )
        return np.array(self.evaluate_states(t, x_points, [history])[0])

    def evaluate_states(self, t: float, x_points: Array, states) -> Array:
        """Values at ``x_points`` in each of k states, as ``(k, n_points, *shape)``.

        ``states`` is a list of k histories (``None`` for a field that reads
        no history) or a (k, dim_w) array of Wiener values; the read is given
        the states its ``reads`` calls for, and a field that reads the whole
        history refuses bare Wiener values.  A constant or a deterministic
        field is broadcast from one state.
        """
        x_points = np.asarray(x_points, dtype=float)
        want = (len(states), len(x_points)) + self.shape
        if self.is_constant:
            return np.broadcast_to(self.value, want)
        if self.is_deterministic:
            states = np.zeros((1, 0))
        elif self.markov and isinstance(states, list):
            states = np.array([h.w for h in states])
        elif not (self.markov or isinstance(states, list)):
            raise StructuralError("a field that reads the history needs histories")
        out = np.asarray(self.fn(t, x_points, states), dtype=float)
        if out.shape != (len(states),) + want[1:]:
            raise StructuralError(f"a field's read returned shape {out.shape}, "
                                  f"expected {(len(states),) + want[1:]}")
        return out if len(out) == want[0] else np.broadcast_to(out, want)


def reads_of(fields) -> frozenset:
    """What any of ``fields`` reads."""
    return frozenset().union(*(f.reads for f in fields))


def _normalise(raw, n: int, shape: tuple) -> Array:
    """A one-state library callable's values as ``(n, *shape)``: an
    x-independent value is broadcast over the n points."""
    out = np.asarray(raw, dtype=float)
    if out.shape not in (shape, (n,) + shape):
        raise StructuralError(
            f"coefficient evaluator returned shape {out.shape}, expected {(n,) + shape}")
    return np.broadcast_to(out, (n,) + shape)


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Spatial modulus gamma: nonnegative, vanishing at 0, nondecreasing."""

    gamma: Callable[[Array], Array]

    def __call__(self, r):
        return np.asarray(self.gamma(np.asarray(r, dtype=float)), dtype=float)


def field_shapes(dim_x: int, dim_w: int) -> dict:
    """The component shape of every field of the equation, by name."""
    return {"a": (dim_x, dim_x), "b": (dim_x,), "c": (), "sigma": (dim_x, dim_w),
            "nu": (dim_w,), "F": (), "phi": ()}


@dataclass
class Scenario:
    """Full problem statement: geometry, coefficients, data, structural constants."""

    dim_x: int
    dim_w: int
    horizon: float
    domain_halfwidth: float
    a: CoefficientField
    b: CoefficientField
    c: CoefficientField
    sigma: CoefficientField
    nu: CoefficientField
    F: CoefficientField
    phi: CoefficientField
    bound_K: float
    ellipticity_kappa: float
    form: str = "non_divergence"
    sources: dict | None = None  # raw expression text when loaded from a file
    validation: object | None = None  # report embedded by the file loader

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_w < 1:
            raise StructuralError("dim_x and dim_w must be >= 1")
        if not all(0 < v < np.inf for v in (self.horizon, self.domain_halfwidth)):
            raise StructuralError("horizon and domain halfwidth must be positive and finite")
        if not (0 < self.ellipticity_kappa < 1 < self.bound_K < np.inf):
            raise StructuralError(
                "constants must satisfy 0 < kappa < 1 < K < inf "
                f"(got kappa={self.ellipticity_kappa}, K={self.bound_K})"
            )
        if self.form not in FORMS:
            raise StructuralError(f"form must be one of {FORMS}")
        for name, shape in field_shapes(self.dim_x, self.dim_w).items():
            fld = getattr(self, name)
            if fld.shape != shape:
                raise StructuralError(
                    f"field {name!r} has component shape {fld.shape}, expected {shape}"
                )

    def coefficient_fields(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "sigma": self.sigma, "nu": self.nu}

    @property
    def coefficients_deterministic(self) -> bool:
        return all(f.is_deterministic for f in self.coefficient_fields().values())

    @property
    def is_deterministic(self) -> bool:
        """True when nothing (coefficients or data) reads the Wiener history."""
        return self.coefficients_deterministic and self.F.is_deterministic \
            and self.phi.is_deterministic

    def with_fields(self, **fields) -> "Scenario":
        """A copy with ``fields`` replaced; a field that changes loses its source text."""
        out = replace(self, **fields)
        if self.sources:
            out.sources = {name: text for name, text in self.sources.items()
                           if getattr(out, name) is getattr(self, name)}
        return out


def _sample_points(scenario: Scenario) -> tuple[Array, Array]:
    """The audit's probe times and points: 5 times over [0, T], and a
    7-per-axis lattice over the torus plus 8 points drawn with seed 1234."""
    L, d = scenario.domain_halfwidth, scenario.dim_x
    ts = np.linspace(0.0, scenario.horizon, 5)
    axes = [np.linspace(-L, L, 7, endpoint=False) for _ in range(d)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    extra = np.random.default_rng(1234).uniform(-L, L, size=(8, d))
    return ts, np.vstack([lattice, extra])


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the sampled audit of the standing assumptions.

    ``min_margin`` is the smallest sampled eigenvalue of
    ``2a - sigma sigma^T - kappa I``; the superparabolicity flag is exactly
    ``min_margin >= 0``.  This is a sampled audit, not a certification: it
    speaks only for the probed (t, x, history) set.
    """

    symmetry_ok: bool
    superparabolic_ok: bool
    min_margin: float
    bounds_ok: bool
    modulus_ok: bool
    sample_count: int

    @property
    def all_ok(self) -> bool:
        return (self.symmetry_ok and self.superparabolic_ok
                and self.bounds_ok and self.modulus_ok)


def _probe_histories(scenario: Scenario, t: float, n_histories: int, seed: int):
    """Deterministic histories for sampling adapted fields at time t."""
    if scenario.is_deterministic or t == 0.0:
        return [PathHistory.empty(scenario.dim_w)]
    steps = 8
    dt = t / steps
    rng = np.random.default_rng(seed)
    hists = [PathHistory.from_increments(np.zeros((steps, scenario.dim_w)), dt)]
    for _ in range(n_histories - 1):
        inc = rng.standard_normal((steps, scenario.dim_w)) * np.sqrt(dt)
        hists.append(PathHistory.from_increments(inc, dt))
    return hists


def validate(scenario: Scenario, modulus: ModulusOfContinuity | None) -> ValidationReport:
    """Sampled audit of symmetry, superparabolicity, bounds, and the modulus.

    Pure: the same scenario always produces the identical report (it is probed
    at ``_sample_points``, and the histories used for adapted fields come
    from a fixed internal seed).  Shape problems (non-square a, wrong sigma
    width) raise ``StructuralError`` and are deliberately distinct from a
    failed check.
    """
    ts, xs = _sample_points(scenario)
    d = scenario.dim_x
    kappa, K = scenario.ellipticity_kappa, scenario.bound_K
    slack = 1e-9

    symmetry_ok = True
    bounds_ok = True
    modulus_ok = True
    min_margin = np.inf
    count = 0

    if modulus is not None:
        radii = np.linspace(0.0, 2 * scenario.domain_halfwidth * np.sqrt(d), 17)
        gvals = modulus(radii)
        if not (abs(gvals[0]) <= 1e-12 and np.all(np.diff(gvals) >= -1e-12)
                and np.all(gvals >= -1e-12)):
            modulus_ok = False

    n_pairs_cap = 64
    idx = np.arange(len(xs)) if len(xs) <= n_pairs_cap else np.arange(len(xs))[::3]
    for t in ts:
        hists = _probe_histories(scenario, float(t), _N_HISTORIES, seed=9 + int(1000 * t))
        # every field in every probe history at once: (n_histories, n, *shape)
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
        upper = np.linalg.eigvalsh(2.0 * a_sym)
        if upper.max() > K + slack:
            bounds_ok = False

        for vals in (a_vals, b_vals, c_vals, sig_vals, nu_vals):
            if not np.all(np.isfinite(vals)):
                bounds_ok = False
            elif np.max(np.abs(vals)) > K + slack:
                bounds_ok = False

        if modulus is not None and modulus_ok:
            # pairwise Frobenius continuity of a and sigma at fixed (t, history)
            xa, aa, ss = xs[idx], a_vals[:, idx], sig_vals[:, idx]
            diff_x = np.linalg.norm(xa[:, None, :] - xa[None, :, :], axis=-1)
            diff_a = np.sqrt(np.sum((aa[:, :, None] - aa[:, None, :]) ** 2, axis=(-1, -2)))
            diff_s = np.sqrt(np.sum((ss[:, :, None] - ss[:, None, :]) ** 2, axis=(-1, -2)))
            cap = modulus(diff_x) + slack
            if np.any(diff_a > cap) or np.any(diff_s > cap):
                modulus_ok = False

    superparabolic_ok = bool(min_margin >= 0.0)
    return ValidationReport(
        symmetry_ok=symmetry_ok,
        superparabolic_ok=superparabolic_ok,
        min_margin=float(min_margin),
        bounds_ok=bounds_ok,
        modulus_ok=modulus_ok,
        sample_count=count,
    )
