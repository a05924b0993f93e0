"""End-to-end and per-layer benchmark of the bspde CLI and library.

    python3 bench/run.py --workload adapted_tree --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and everything the run writes goes under ``.bench_work/``.  One
process runs one workload as a closed loop: a single caller runs the
workload's commands back to back (each CLI command in-process through
``bspde.cli.main(argv)`` with stdout captured, continuation through the
library), session after session, for about ``--seconds`` and at least three
sessions.  BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics.  While a timed command runs, a
fixed calibration kernel samples the machine's speed (calibrate.py), and
the command's wall time is rescaled by that speed, which cancels the slow
stretches of a shared host (NOTES.md, "Steadiness"); a set-up is rescaled
by bursts of the kernel just before and after it.  A time is the median of
its rescaled samples in the run; the raw wall-time median and fastest sample
are printed and stored beside it.
``--trace 1`` runs the same untraced sessions, then one more session with
every public bspde name wrapped (see tracer.py), and prints the per-layer
metrics plus the tracing overhead.  The correctness gate runs after all
timing; every failed check or unexpected exit code counts in ``failed``.
The last stdout line is the JSON result; the full record, with sample
counts and the environment, is written to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
MIN_SESSIONS = 3
SETUP_PROBES = 1            # per session
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "session_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
# Command times a workload may not run: reported with the per-layer metrics,
# as 0 where the workload does not run the command.
COMMAND_METRICS = ("audit_s", "positivity_s", "compare_s", "mollify_s",
                   "regress_s", "continuation_s")
LAYERS = ("bench", "cli", "scenario_file", "scenario", "expr", "wiener", "space",
          "solver", "analysis", "oracle", "frozen")
# per-layer metric -> (unit, span name, what): what is calls | incl | self
SPAN_METRICS = {
    "scenario_file.load_s": ("s", "scenario_file.load", "incl"),
    "scenario.evaluate_calls": ("count", "scenario.evaluate", "calls"),
    "scenario.evaluate_s": ("s", "scenario.evaluate", "incl"),
    "scenario.validate_s": ("s", "scenario.validate", "incl"),
    "expr.evaluate_calls": ("count", "expr.evaluate", "calls"),
    "expr.evaluate_s": ("s", "expr.evaluate", "incl"),
    "wiener.build_tree_s": ("s", "wiener.build_tree", "incl"),
    "wiener.history_calls": ("count", "wiener.history", "calls"),
    "wiener.history_s": ("s", "wiener.history", "incl"),
    "wiener.sample_paths_s": ("s", "wiener.sample_paths", "incl"),
    "wiener.w_at_s": ("s", "wiener.w_at", "incl"),
    "space.basis_s": ("s", "space.basis", "incl"),
    "space.assemble_calls": ("count", "space.assemble", "calls"),
    "space.assemble_s": ("s", "space.assemble", "incl"),
    "space.project_calls": ("count", "space.project", "calls"),
    "space.project_s": ("s", "space.project", "incl"),
    "space.reconstruct_calls": ("count", "space.reconstruct", "calls"),
    "space.reconstruct_s": ("s", "space.reconstruct", "incl"),
    "solver.solve_tree_calls": ("count", "solver.solve_tree", "calls"),
    "solver.solve_tree_s": ("s", "solver.solve_tree", "incl"),
    "solver.backward_self_s": ("s", "solver.backward", "self"),
    "solver.linalg_solve_calls": ("count", "solver.linalg_solve", "calls"),
    "solver.linalg_solve_s": ("s", "solver.linalg_solve", "incl"),
    "solver.regression_s": ("s", "solver.regression", "incl"),
    "solver.lstsq_calls": ("count", "solver.lstsq", "calls"),
    "solver.lstsq_s": ("s", "solver.lstsq", "incl"),
    "analysis.energy_audit_s": ("s", "analysis.energy_audit", "incl"),
    "analysis.positivity_check_s": ("s", "analysis.positivity_check", "incl"),
    "analysis.mollify_s": ("s", "analysis.mollify", "incl"),
    "oracle.solve_dense_s": ("s", "oracle.solve_dense", "incl"),
    "frozen.solve_frozen_calls": ("count", "frozen.solve_frozen", "calls"),
    "frozen.solve_frozen_s": ("s", "frozen.solve_frozen", "incl"),
}
COUNTER_METRICS = {
    "wiener.tree_nodes": "count",
    "solver.factor_flops": "flop.computed",
    "oracle.dense_unknowns": "count",
    "frozen.picard_iterations": "count",
}
PER_LAYER = {
    "cli.out_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    **COUNTER_METRICS,
    "scenario.evaluate_per_node": "calls/node",
    "space.assemble_per_node": "calls/node",
    **{name: "s" for name in COMMAND_METRICS},
    "failed_frac": "fraction",
    "trace.session_s": "s",
    "trace.overhead_s": "s",
}


def _pin_blas_threads():
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _import_program():
    """Import bspde from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "bspde" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {src / 'bspde'} is missing")
    sys.path.insert(0, str(src))
    import bspde
    if Path(bspde.__file__).resolve().parent != (src / "bspde").resolve():
        sys.exit(f"error: imported bspde from {bspde.__file__}, not from {src}")
    return bspde


# -- environment record -------------------------------------------------------

def _blas_name() -> str:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():   # a plain checkout: no commit to report
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bspde").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import importlib.metadata

    import numpy
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": _blas_name(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# -- set-up -------------------------------------------------------------------

def setup_probe(workload: str, seed: int, work: Path) -> float:
    """Seconds of ``import bspde`` plus generating and loading the inputs, in
    a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(work / "probe")], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- sessions -----------------------------------------------------------------

class Workload:
    """Generated inputs and the command list of one workload at one size."""

    def __init__(self, name: str, seed: int, size, work: Path):
        import workloads
        from bspde.scenario_file import load_scenario
        self.name, self.seed, self.size, self.work = name, seed, size, work
        self.scn = workloads.write_inputs(name, seed, size, work / "inputs")
        self.commands = workloads.commands(name, size)
        self.scenario = load_scenario(str(self.scn))[0]

    def argv(self, cmd) -> list[str]:
        argv = [cmd.argv[0], str(self.scn), *cmd.argv[1:]]
        if cmd.out:
            argv += ["--out", str(self.work / "out" / cmd.argv[0])]
        return argv


def _out_bytes(stdout: str, out_dir: Path | None) -> int:
    total = len(stdout.encode("utf-8"))
    if out_dir is not None and out_dir.is_dir():
        total += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return total


def run_session(wl: Workload, tracer=None) -> dict:
    """One closed-loop pass over the workload's commands.

    Untraced, every command runs under a ``calibrate.Sampler``: ``times``
    holds its wall time less the sampler's kernel time, ``speed`` the
    machine's mean speed over it and ``scaled`` the rescaled time
    (``times * speed``).  ``session_s`` leaves every kernel run out.  Traced,
    nothing samples, so the layers' self times add up to ``session_s``.
    """
    import bspde.cli
    import calibrate
    import workloads
    rec = {"times": {}, "stdout": {}, "codes": {}, "errors": {}, "out_bytes": 0,
           "extras": {}, "speed": {}, "samples": {}, "scaled": {}}
    samplers = {}
    null = contextlib.nullcontext()
    start = time.perf_counter()
    with tracer.span("bench.session") if tracer else null:
        for i, cmd in enumerate(wl.commands):
            if tracer:
                tracer.command = i
            sampler = samplers[cmd.metric] = None if tracer else calibrate.Sampler()
            with tracer.span("bench.command") if tracer else sampler:
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                try:
                    if cmd.argv:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = bspde.cli.main(wl.argv(cmd))
                    else:
                        rec["extras"]["continuation"] = workloads.continuation_step(
                            wl.scenario, wl.size)
                        code = 0
                except Exception:   # a crash is a failed command, not a dead run
                    code = None
                    err.write(traceback.format_exc())
                rec["times"][cmd.metric] = time.perf_counter() - t0 - (
                    sampler.overhead if sampler else 0.0)
                rec["stdout"][cmd.metric] = out.getvalue()
                rec["codes"][cmd.metric] = code
                rec["errors"][cmd.metric] = err.getvalue()
                out_dir = wl.work / "out" / cmd.argv[0] if cmd.out else None
                rec["out_bytes"] += _out_bytes(out.getvalue(), out_dir)
    rec["elapsed_s"] = time.perf_counter() - start
    rec["session_s"] = rec["elapsed_s"] - sum(s.cost for s in samplers.values() if s)
    if tracer:
        tracer.command = -1
        return rec
    for metric, sampler in samplers.items():
        rec["speed"][metric] = sampler.speed()
        rec["samples"][metric] = len(sampler.inside)
        rec["scaled"][metric] = rec["times"][metric] * rec["speed"][metric]
    rec["scaled_session_s"] = sum(rec["scaled"].values())
    return rec


def run_sessions(wl: Workload, seconds: float, between) -> list[dict]:
    """At least MIN_SESSIONS timed sessions, then more while another
    median-length session still ends within ``seconds``; ``between()`` runs
    after every session.

    The first session of a process runs about a quarter slower than the rest
    (the heap grows and faults in fresh pages), so a warm-up session runs
    first; its outputs are checked like the others but it is not timed.
    """
    warmup = run_session(wl)
    between()
    sessions, start = [], time.perf_counter()
    while len(sessions) < MIN_SESSIONS or (
            time.perf_counter() - start
            + statistics.median([s["elapsed_s"] for s in sessions]) <= seconds):
        sessions.append(run_session(wl))
        between()
    return warmup, sessions


def traced_session(wl: Workload):
    """One session with every public name wrapped, between two bursts of the
    calibration kernel (``scaled_session_s`` is its rescaled wall time)."""
    import calibrate
    import tracer as tracing
    tracer = tracing.Tracer()
    before = calibrate.measure()
    tracer.install()
    try:
        rec = run_session(wl, tracer)
    finally:
        tracer.uninstall()
    rec["scaled_session_s"] = rec["session_s"] * calibrate.speed(
        (before + calibrate.measure()) / 2.0)
    return rec, tracer


# -- checks -------------------------------------------------------------------

def load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_run(wl: Workload, sessions: list[dict], reference: dict | None):
    """Exit codes and repeatability of every session, then the workload gate."""
    import workloads
    gate = workloads.Gate()
    first = sessions[0]
    for k, rec in enumerate(sessions):
        for metric, code in rec["codes"].items():
            gate.check(f"session {k} {metric} exit 0", code == 0,
                       f"exit {code}: {rec['errors'][metric].strip()[-300:]}")
        if k:
            gate.check(f"session {k} output identical to session 0",
                       rec["stdout"] == first["stdout"]
                       and rec["out_bytes"] == first["out_bytes"])
    if all(code == 0 for code in first["codes"].values()):
        inner = workloads.run_gate(wl.name, wl.size, wl.scn, first["stdout"],
                                   sessions[-1]["extras"], reference)
        gate.results += inner.results
        gate.values = inner.values
    else:
        gate.check("workload gate", False, "skipped: a command of session 0 failed")
    return gate


# -- metrics ------------------------------------------------------------------

def _timing(scaled: list[float], raw: list[float]) -> tuple:
    """(value, sample count, raw wall times) of one timing: the value is the
    median of the rescaled samples; the raw samples go into the record."""
    if not scaled:
        return 0.0, 0, None
    return statistics.median(scaled), len(scaled), raw


def _command_timing(sessions: list[dict], metric: str) -> tuple:
    return _timing([s["scaled"][metric] for s in sessions if metric in s["scaled"]],
                   [s["times"][metric] for s in sessions if metric in s["times"]])


def end_to_end(sessions: list[dict], setup: list[tuple], peak_rss_mb: float) -> dict:
    return {
        "setup_s": _timing([scaled for _, scaled in setup], [raw for raw, _ in setup]),
        "session_s": _timing([s["scaled_session_s"] for s in sessions],
                             [s["session_s"] for s in sessions]),
        "solve_s": _command_timing(sessions, "solve_s"),
        "peak_rss_mb": (peak_rss_mb, 1, None),
    }


def per_layer(tracer, traced: dict, sessions: list[dict], failed_frac: float) -> dict:
    agg = tracer.aggregate()
    counters = tracer.counter_totals()
    layers = tracer.layer_self()
    out = {"cli.out_bytes": traced["out_bytes"]}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    index = {"calls": 0, "incl": 1, "self": 2}
    for name, (_unit, span, what) in SPAN_METRICS.items():
        out[name] = agg.get(span, [0, 0.0, 0.0])[index[what]]
    for name in COUNTER_METRICS:
        out[name] = counters.get(name, 0)
    nodes = out["wiener.tree_nodes"]
    out["scenario.evaluate_per_node"] = out["scenario.evaluate_calls"] / nodes if nodes else 0.0
    out["space.assemble_per_node"] = out["space.assemble_calls"] / nodes if nodes else 0.0
    out["failed_frac"] = failed_frac
    out["trace.session_s"] = traced["session_s"]
    out["trace.overhead_s"] = traced["scaled_session_s"] - statistics.median(
        s["scaled_session_s"] for s in sessions)
    out = {name: (value, 1, None) for name, value in out.items()}
    for name in COMMAND_METRICS:
        out[name] = _command_timing(sessions, name)
    return out


def command_breakdown(wl: Workload, tracer) -> dict:
    """Per command of the traced session: span calls and counters."""
    out = {}
    for i, cmd in enumerate(wl.commands):
        calls = {name: rec[0] for name, rec in sorted(tracer.aggregate(i).items())}
        out[cmd.metric] = {"calls": calls, "counters": tracer.counter_totals(i)}
    return out


# -- driver -------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, size=None,
                 reference=None, setup_probes: int = SETUP_PROBES) -> dict:
    """Everything one invocation does; returns the full record."""
    import tracer as tracing
    import workloads
    full = size is None
    size = size or workloads.FULL[workload]
    work = ROOT / ".bench_work" / workload
    if reference is None and full:
        reference = load_reference(workload, seed)

    # Set-up probes are spread over the run, a few after every session, each
    # between two bursts of the calibration kernel; ``setup`` holds (raw,
    # rescaled) pairs.  The first probe only warms the file cache.
    import calibrate
    setup = []
    if setup_probes:
        setup_probe(workload, seed, work)

    def probe_setup():
        if not setup_probes:
            return
        before = calibrate.measure()
        for _ in range(setup_probes):
            raw = setup_probe(workload, seed, work)
            after = calibrate.measure()
            setup.append((raw, raw * calibrate.speed((before + after) / 2.0)))
            before = after

    wl = Workload(workload, seed, size, work)
    if tracing.installed_wrappers():
        raise RuntimeError("tracing wrappers present before untraced timing")
    warmup, sessions = run_sessions(wl, seconds, probe_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = traced = None
    if trace:
        traced, tracer = traced_session(wl)
    gate = check_run(wl, [warmup] + sessions + ([traced] if traced else []), reference)
    attempted, failed = len(gate.results), len(gate.failures)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(seed),
        "sessions": len(sessions),
        "command_times": {m: [s["times"][m] for s in sessions] for m in sessions[0]["times"]},
        "scaled_command_times": {m: [s["scaled"][m] for s in sessions]
                                 for m in sessions[0]["scaled"]},
        "session_times": [s["session_s"] for s in sessions],
        "scaled_session_times": [s["scaled_session_s"] for s in sessions],
        "speeds": {m: [s["speed"][m] for s in sessions] for m in sessions[0]["speed"]},
        "kernel_samples": {m: [s["samples"][m] for s in sessions]
                           for m in sessions[0]["samples"]},
        "calibration_reference_s": calibrate.REFERENCE_S,
        "setup_times": [raw for raw, _ in setup],
        "scaled_setup_times": [scaled for _, scaled in setup],
        "checks": gate.results,
        "summary_values": gate.values,
        "attempted": attempted, "failed": failed,
    }
    if trace:
        metrics = per_layer(tracer, traced, sessions, failed / attempted)
        units = PER_LAYER
        record["trace_commands"] = command_breakdown(wl, tracer)
        record["layer_self_s"] = tracer.layer_self()
        record["traced_session_s"] = traced["session_s"]
        work.mkdir(parents=True, exist_ok=True)
        with open(work / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    else:
        metrics = end_to_end(sessions, setup, peak_rss_mb)
        units = END_TO_END
    record["metrics"] = {name: {"value": value, "unit": units[name], "samples": n,
                                "raw": raw}
                         for name, (value, n, raw) in metrics.items()}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(
        "adapted_tree", "det_ops_2d", "chain_paths"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _pin_blas_threads()
    _import_program()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, ok, detail in record["checks"]:
        if not ok:
            print(f"FAILED check: {name}: {detail}")
    for cmd, rec in record.get("trace_commands", {}).items():
        calls = " ".join(f"{k}={v}" for k, v in rec["calls"].items())
        counters = " ".join(f"{k}={v:g}" for k, v in sorted(rec["counters"].items()))
        print(f"trace {cmd}: {calls} {counters}")
    for name, m in record["metrics"].items():
        how = "" if m["raw"] is None else (
            f", median rescaled; raw wall median {statistics.median(m['raw'])!r},"
            f" fastest {min(m['raw'])!r}")
        print(f"{name} = {m['value']!r} {m['unit']} (samples={m['samples']}{how})")
    print("environment = " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
