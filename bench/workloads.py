"""Seeded inputs, command lists and correctness checks of the three workloads.

Each workload is one scenario file generated from ``--seed`` plus the list of
commands one closed-loop caller runs back to back.  The seed only moves
coefficient phases and amplitudes (and the regression path seed) inside
ranges that keep the standing-assumption audit passing, keep phi >= 0 and
F >= 0 where positivity is audited, and keep the |sin| kink of the rough
chain coefficient; problem sizes never depend on the seed, so every seed does
the same amount of work.

Why each workload exists:

* ``adapted_tree`` -- every coefficient and both data fields read w1, so each
  of the 9,841 tree nodes has its own operator.  Time goes to per-node field
  evaluation, assembly and ``tree.history`` walks, while the 17x17 node solves
  are cheap.  A shared field provider or a recombining tree acts here.
* ``det_ops_2d`` -- 2-d divergence form, coefficients vary in x but not in w,
  only phi reads w1.  Operators are assembled once per level (14 assemblies),
  so time goes to 1,093 separate 169x169 solves and to writing fields.csv.
  One LU per level or a faster writer acts here; per-node evaluation barely
  matters.
* ``chain_paths`` -- deterministic rough ``|sin|`` coefficient, so the CLI
  runs a 256-step chain and no tree at all: per-level assembly on a long
  chain, the mollifier convolution, and lstsq plus one many-RHS solve per
  regression step.  Tree-level optimisations should leave it unchanged.

Continuation runs on ``adapted_tree`` only: ``frozen`` ignores
``scenario.form``, so on the divergence-form ``det_ops_2d`` scenario it misses
``solve_tree`` by about 5e-3 (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

PI = "3.14159265358979"

# Round-off tolerances of the correctness gate.
RESIDUAL_TOL = 1e-12        # strong residual, relative to max(1, |p|_max)
CONTINUATION_TOL = 1e-8     # continuation vs solve_tree, relative
REGRESS_TOL = 1e-10         # regress p0 norms vs chain solve p0 norms, relative
REFERENCE_RTOL = 1e-9       # summary values vs stored references
REFERENCE_ATOL = 1e-13


@dataclass(frozen=True)
class Size:
    """Discretisation of one workload; ``FULL`` is what the benchmark times."""

    modes: int
    steps: int
    branching: int
    compare_steps: int = 0        # adapted_tree: dense oracle on a shorter tree
    cont_steps: int = 0           # adapted_tree: continuation tree depth
    regress_steps: int = 0        # chain_paths: regress flags
    regress_modes: int = 0
    paths: int = 0


FULL = {
    "adapted_tree": Size(modes=8, steps=8, branching=3, compare_steps=4, cont_steps=5),
    "det_ops_2d": Size(modes=6, steps=7, branching=3),
    "chain_paths": Size(modes=64, steps=256, branching=2, regress_steps=128,
                        regress_modes=16, paths=4000),
}

# Small enough that the whole gate runs in about a second; used by the
# benchmark's own tests.
SMOKE = {
    "adapted_tree": Size(modes=3, steps=3, branching=2, compare_steps=2, cont_steps=2),
    "det_ops_2d": Size(modes=2, steps=3, branching=2),
    "chain_paths": Size(modes=16, steps=32, branching=2, regress_steps=16,
                        regress_modes=4, paths=200),
}

WORKLOADS = tuple(FULL)


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 4))


def _phase(rng: random.Random) -> str:
    return repr(round(rng.uniform(0.0, 2.0 * math.pi), 4))


def _adapted_tree_text(rng: random.Random, size: Size, seed: int) -> str:
    u, ph = (lambda lo, hi: _draw(rng, lo, hi)), (lambda: _phase(rng))
    # 2a - sigma^2 - kappa >= 2*0.5 - 0.36^2 - 0.3 > 0; F and phi stay > 0
    return f"""[problem]
d = 1
d1 = 1
T = 0.5
L = {PI}
K = 2.0
kappa = 0.3
form = non_divergence

[coefficients]
a = {u(0.62, 0.68)} + {u(0.06, 0.09)}*sin(x1 + {ph()}) + {u(0.06, 0.09)}*sin(w1 + {ph()})
b = [{u(0.10, 0.15)}*cos(x1 + {ph()}) + {u(0.03, 0.06)}*sin(w1 + {ph()})]
c = {u(0.08, 0.12)} + {u(0.03, 0.05)}*cos(w1 + {ph()})
sigma = [[{u(0.20, 0.30)} + {u(0.03, 0.06)}*sin(w1 + {ph()})]]
nu = [{u(0.03, 0.06)}*cos(w1 + {ph()})]

[data]
F = {u(0.3, 0.5)}*(1 + {u(0.3, 0.6)}*sin(x1 + {ph()}))*(1 + {u(0.2, 0.4)}*cos(w1 + {ph()}))
phi = {u(1.4, 1.6)} + {u(0.4, 0.6)}*sin(x1 + {ph()}) + {u(0.2, 0.4)}*sin(w1 + {ph()})

[discretization]
modes = {size.modes}
steps = {size.steps}
branching = {size.branching}
seed = {seed}

[run]
theta = 1.0
tol = 1e-8
"""


def _det_ops_2d_text(rng: random.Random, size: Size, seed: int) -> str:
    u, ph = (lambda lo, hi: _draw(rng, lo, hi)), (lambda: _phase(rng))
    off = f"{u(0.03, 0.06)}*cos(x1 + x2 + {ph()})"   # same text: a stays symmetric
    return f"""[problem]
d = 2
d1 = 1
T = 0.5
L = {PI}
K = 2.0
kappa = 0.3
form = divergence

[coefficients]
a = [[{u(0.58, 0.62)} + {u(0.06, 0.1)}*sin(x1 + {ph()})*cos(x2 + {ph()}), {off}], [{off}, {u(0.58, 0.62)} + {u(0.06, 0.1)}*cos(x1 + {ph()})]]
b = [{u(0.05, 0.1)}*sin(x2 + {ph()}), {u(0.05, 0.1)}*cos(x1 + {ph()})]
c = {u(0.08, 0.12)} + {u(0.03, 0.05)}*sin(x1 + x2 + {ph()})
sigma = [[{u(0.15, 0.25)} + {u(0.03, 0.05)}*sin(x1 + {ph()})], [{u(0.05, 0.1)}*cos(x2 + {ph()})]]
nu = [{u(0.03, 0.06)}*cos(x1 + {ph()})]

[data]
F = {u(0.2, 0.4)}*(1 + {u(0.3, 0.6)}*sin(x1 + {ph()})*cos(x2 + {ph()}))
phi = {u(1.4, 1.6)} + {u(0.3, 0.5)}*sin(x1 + {ph()})*cos(x2 + {ph()}) + {u(0.1, 0.3)}*sin(w1 + {ph()})

[discretization]
modes = {size.modes}
steps = {size.steps}
branching = {size.branching}
seed = {seed}

[run]
theta = 0.5
tol = 1e-8
"""


def _chain_paths_text(rng: random.Random, size: Size, seed: int) -> str:
    u, ph = (lambda lo, hi: _draw(rng, lo, hi)), (lambda: _phase(rng))
    # the kink of |sin| moves with the seed but never disappears
    return f"""[problem]
d = 1
d1 = 1
T = 0.25
L = 1.0
K = 2.0
kappa = 0.3

[coefficients]
a = {u(0.55, 0.65)} + {u(0.12, 0.18)}*abs(sin({PI}*(x1 - {u(-0.5, 0.5)})))
b = [{u(0.05, 0.15)}*cos({PI}*x1 + {ph()})]
c = {u(0.03, 0.08)}

[data]
F = {u(0.2, 0.4)}*(1 + {u(0.3, 0.6)}*cos({PI}*x1 + {ph()}))
phi = {u(1.1, 1.3)} + cos({PI}*(x1 - {u(-0.5, 0.5)}))

[discretization]
modes = {size.modes}
steps = {size.steps}
paths = {size.paths}
seed = {rng.randrange(1, 2**31)}

[run]
theta = 1.0
tol = 1e-8
smoothing = 4,8,16
"""


_TEXT = {
    "adapted_tree": _adapted_tree_text,
    "det_ops_2d": _det_ops_2d_text,
    "chain_paths": _chain_paths_text,
}


def scenario_text(workload: str, seed: int, size: Size) -> str:
    """The scenario file of ``workload``; the same seed gives the same text."""
    rng = random.Random(f"{workload}:{seed}")
    return _TEXT[workload](rng, size, seed)


def write_inputs(workload: str, seed: int, size: Size, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.scn"
    path.write_text(scenario_text(workload, seed, size), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Command:
    """One step of a session: a CLI invocation, or the library continuation."""

    metric: str             # end-to-end metric the step's wall time feeds
    argv: tuple = ()        # CLI arguments after the program name
    out: bool = False       # append ``--out DIR``


def commands(workload: str, size: Size) -> list[Command]:
    if workload == "adapted_tree":
        return [Command("solve_s", ("solve",)),
                Command("audit_s", ("audit", "--estimate", "all")),
                Command("positivity_s", ("positivity",)),
                Command("compare_s", ("compare", "--steps", str(size.compare_steps))),
                Command("continuation_s")]
    if workload == "det_ops_2d":
        return [Command("solve_s", ("solve",), out=True),
                Command("audit_s", ("audit", "--estimate", "all")),
                Command("positivity_s", ("positivity",))]
    return [Command("solve_s", ("solve",), out=True),
            Command("mollify_s", ("mollify-study",)),
            Command("regress_s", ("regress", "--steps", str(size.regress_steps),
                                  "--modes", str(size.regress_modes)))]


def parse_summary(stdout: str) -> dict:
    """``key = value`` lines of a command's stdout (CSV table lines skipped)."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def continuation_step(scenario, size: Size):
    """The library call timed as ``continuation_s``: 2 lambda steps, B=3 tree."""
    import bspde.frozen
    import bspde.space
    import bspde.wiener
    tree = bspde.wiener.build_tree(scenario.dim_w, size.cont_steps, size.branching,
                                   scenario.horizon)
    basis = bspde.space.SpectralBasis(scenario.dim_x, size.modes,
                                      scenario.domain_halfwidth)
    sol, reports = bspde.frozen.continuation_solve(scenario, 2, tree, basis)
    return {"tree": tree, "basis": basis, "solution": sol, "reports": reports}


# -- correctness gate ---------------------------------------------------------

@dataclass
class Gate:
    """Named pass/fail checks; every failure counts against ``failed_frac``."""

    results: list = field(default_factory=list)   # (name, ok, detail)
    values: dict = field(default_factory=dict)    # metric -> {summary key: value}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r[1]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _max_rel_diff(levels_a, levels_b) -> float:
    scale = max(float(np.abs(lv).max()) for lv in levels_b)
    return max(float(np.abs(x - y).max()) for x, y in zip(levels_a, levels_b)) / scale


def _full_tree_solve(scenario, disc, run, chain: bool):
    """Library solve of the workload's full-size problem (as the CLI builds it)."""
    from bspde.solver import SchemeConfig, solve_tree
    from bspde.space import SpectralBasis
    from bspde.wiener import build_chain, build_tree
    basis = SpectralBasis(scenario.dim_x, disc.modes, scenario.domain_halfwidth)
    tree = (build_chain(scenario.dim_w, disc.steps, scenario.horizon) if chain else
            build_tree(scenario.dim_w, disc.steps, disc.branching, scenario.horizon))
    scheme = SchemeConfig(theta=run.theta)
    return solve_tree(scenario, tree, basis, scheme), tree, basis, scheme


def _check_residual(gate: Gate, name: str, scenario, disc, run, chain: bool):
    from bspde.solver import strong_residual
    sol, tree, basis, scheme = _full_tree_solve(scenario, disc, run, chain)
    res = max(float(r.max()) for r in strong_residual(sol, scenario, tree, basis, scheme))
    scale = max(1.0, max(float(np.abs(lv).max()) for lv in sol.p.levels))
    gate.check(name, res <= RESIDUAL_TOL * scale, f"max residual {res:.3e}")


def run_gate(workload: str, size: Size, scn_path: Path, outputs: dict,
             extras: dict, reference: dict | None) -> Gate:
    """Checks outside the timed regions.

    ``outputs`` maps a command metric to the stdout of its first session,
    ``extras`` holds the continuation result; ``reference`` maps metric ->
    {summary key: stored value} and is None when no reference applies.
    """
    import bspde.cli
    from bspde.scenario_file import load_scenario
    gate = Gate()
    scenario, disc, run = load_scenario(str(scn_path))
    summ = {m: parse_summary(text) for m, text in outputs.items()}

    if workload in ("adapted_tree", "det_ops_2d"):
        gate.check("audit all passed", summ["audit_s"].get("all_passed") == "True")
        gate.check("positivity nonnegative",
                   summ["positivity_s"].get("nonnegative") == "True")
        _check_residual(gate, "strong residual (full tree)", scenario, disc, run, False)

    if workload == "adapted_tree":
        gate.check("compare vs dense oracle",
                   summ["compare_s"].get("within_tolerance") == "True",
                   summ["compare_s"].get("max_rel_diff", "missing"))
        from bspde.solver import solve_tree
        cont = extras["continuation"]
        ref = solve_tree(scenario, cont["tree"], cont["basis"])
        rel = _max_rel_diff(cont["solution"].p.levels, ref.p.levels)
        gate.check("continuation vs solve_tree", rel <= CONTINUATION_TOL,
                   f"max rel diff {rel:.3e}")
        summ["continuation_s"] = {"p0_l2": repr(cont["solution"].p0().norm(0))}

    if workload == "det_ops_2d":
        # the full det_ops_2d tree is far beyond the dense oracle; a B=2, N=2
        # tree of the same scenario is not
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = bspde.cli.main(["compare", str(scn_path), "--steps", "2",
                                   "--branching", "2"])
        gate.check("compare vs dense oracle (B=2, N=2)",
                   code == 0 and parse_summary(buf.getvalue()).get(
                       "within_tolerance") == "True", f"exit {code}")

    if workload == "chain_paths":
        gate.check("mollify-study monotone",
                   summ["mollify_s"].get("monotone_decreasing") == "True")
        _check_residual(gate, "strong residual (full chain)", scenario, disc, run, True)
        # deterministic data: regression reproduces the chain solve exactly
        short = replace(disc, modes=size.regress_modes, steps=size.regress_steps)
        sol, *_ = _full_tree_solve(scenario, short, run, True)
        p0 = sol.p0()
        for key, order in (("p0_l2", 0), ("p0_h1", 1)):
            printed = float(summ["regress_s"].get(key, "nan"))
            rel = _rel(printed, p0.norm(order))
            gate.check(f"regress {key} vs chain solve", rel <= REGRESS_TOL,
                       f"rel diff {rel:.3e}")

    gate.values = {metric: {key: float(summ[metric][key]) for key in keys
                            if key in summ.get(metric, {})}
                   for metric, keys in REFERENCE_KEYS.items() if metric in summ}
    if reference is not None:
        for metric, keys in reference.items():
            for key, want in keys.items():
                got = summ.get(metric, {}).get(key)
                ok = got is not None and math.isclose(
                    float(got), want, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
                gate.check(f"reference {metric}:{key}", ok, f"got {got}, want {want!r}")
    return gate


# Summary keys pinned by reference.json at the default seed.
REFERENCE_KEYS = {
    "solve_s": ("p0_l2", "p0_h1", "p_time_h1", "q_time_l2"),
    "audit_s": ("fitted_C[weak_est_2_5]", "fitted_C[strong_est_2_7]",
                "fitted_C[higher_est_2_9]"),
    "positivity_s": ("min_value", "scale"),
    "mollify_s": ("defect[n=4]", "defect[n=8]", "defect[n=16]"),
    "regress_s": ("p0_l2", "p0_h1"),
    "continuation_s": ("p0_l2",),
}
