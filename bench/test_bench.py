"""The benchmark's own tests: gate, reference check, tracing, inputs.

    python3 -m pytest -q bench/test_bench.py

Every workload runs at smoke size (``workloads.SMOKE``), so the file takes
seconds, not minutes.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import calibrate
import run
import tracer as tracing
import workloads

run._import_program()

from bspde.scenario_file import load_scenario  # noqa: E402


def _smoke(workload, seed=3, trace=False, reference=None):
    return run.run_workload(workload, seed, 0, trace, size=workloads.SMOKE[workload],
                            reference=reference, setup_probes=0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_of_every_workload_clears_the_gate(workload):
    record = _smoke(workload, trace=True)
    assert record["attempted"] > 0
    assert [c for c in record["checks"] if not c[1]] == []
    metrics = record["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["failed_frac"]["value"] == 0.0
    assert metrics["cli.out_bytes"]["value"] > 0


def test_wrong_reference_value_counts_as_failure():
    good = _smoke("adapted_tree")["summary_values"]
    assert _smoke("adapted_tree", reference=good)["failed"] == 0

    bad = json.loads(json.dumps(good))
    bad["solve_s"]["p0_l2"] *= 1.0 + 1e-6
    record = _smoke("adapted_tree", reference=bad)
    failed = [name for name, ok, _ in record["checks"] if not ok]
    assert failed == ["reference solve_s:p0_l2"]
    assert record["failed"] == 1


def test_stored_references_cover_every_timed_command():
    with open(run.HERE / "reference.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    for workload in workloads.WORKLOADS:
        metrics = {c.metric for c in workloads.commands(workload, workloads.FULL[workload])}
        want = {m: set(workloads.REFERENCE_KEYS[m]) for m in metrics
                if m in workloads.REFERENCE_KEYS}
        assert {m: set(v) for m, v in stored[workload].items()} == want


def test_self_times_sum_to_traced_wall_time():
    wl = run.Workload("det_ops_2d", 5, workloads.SMOKE["det_ops_2d"],
                      run.ROOT / ".bench_work" / "test")
    rec, tracer = run.traced_session(wl)
    layers = tracer.layer_self()
    root = next(s for s in tracer.spans if tracer.names[s[0]] == "bench.session")
    assert math.isclose(sum(layers.values()), root[2] - root[1], rel_tol=1e-9)
    assert abs(rec["session_s"] - (root[2] - root[1])) < 1e-3
    assert set(layers) <= set(run.LAYERS)
    assert layers["solver"] > 0 and layers["space"] > 0


def test_no_wrapper_survives_a_traced_run():
    import bspde.analysis
    import bspde.cli
    import bspde.oracle
    import bspde.solver
    import bspde.space
    solve_tree = bspde.solver.solve_tree
    assemble_l = bspde.space.assemble_L
    linalg_solve = np.linalg.solve

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every namespace that bound a name sees the wrapper
        for ns in (bspde.cli, bspde.solver, bspde.analysis):
            assert ns.solve_tree.__bench_wrapped__ is solve_tree
        for ns in (bspde.solver, bspde.analysis, bspde.oracle):
            assert ns.assemble_L.__bench_wrapped__ is assemble_l
        assert np.linalg.solve.__bench_wrapped__ is linalg_solve
    finally:
        tracer.uninstall()

    wl = run.Workload("chain_paths", 2, workloads.SMOKE["chain_paths"],
                      run.ROOT / ".bench_work" / "test")
    run.traced_session(wl)
    assert tracing.installed_wrappers() == []
    assert bspde.cli.solve_tree is solve_tree
    assert bspde.oracle.assemble_L is assemble_l
    assert np.linalg.solve is linalg_solve


def test_tracer_uninstalls_when_the_session_raises(monkeypatch):
    wl = run.Workload("det_ops_2d", 1, workloads.SMOKE["det_ops_2d"],
                      run.ROOT / ".bench_work" / "test")

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(run, "run_session", boom)
    with pytest.raises(KeyboardInterrupt):
        run.traced_session(wl)
    assert tracing.installed_wrappers() == []


def test_sampler_samples_inside_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.inside) >= calibrate.MIN_INSIDE
    assert len(sampler.edges) == 2 * calibrate.EDGE_RUNS
    assert 0.0 < sampler.overhead < sampler.cost
    assert sampler.speed() > 0.0


def test_untimed_kernel_runs_stay_out_of_session_times():
    wl = run.Workload("chain_paths", 4, workloads.SMOKE["chain_paths"],
                      run.ROOT / ".bench_work" / "test")
    rec = run.run_session(wl)
    assert set(rec["scaled"]) == {c.metric for c in wl.commands}
    for metric, scaled in rec["scaled"].items():
        assert scaled == rec["times"][metric] * rec["speed"][metric]
    assert rec["scaled_session_s"] == pytest.approx(sum(rec["scaled"].values()))
    # what is left besides the commands is the harness: captured output, file sizes
    assert 0.0 <= rec["session_s"] - sum(rec["times"].values()) < 0.05


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_are_seeded_and_valid(workload):
    size = workloads.FULL[workload]
    assert workloads.scenario_text(workload, 7, size) == \
        workloads.scenario_text(workload, 7, size)
    assert workloads.scenario_text(workload, 7, size) != \
        workloads.scenario_text(workload, 8, size)
    work = run.ROOT / ".bench_work" / "test" / "inputs"
    for seed in range(12):
        path = workloads.write_inputs(workload, seed, size, work)
        scenario, _disc, _run = load_scenario(str(path), strict=True)
        assert scenario.validation.all_ok
        x = np.linspace(-scenario.domain_halfwidth, scenario.domain_halfwidth, 41)
        grid = np.stack(np.meshgrid(*[x] * scenario.dim_x, indexing="ij"),
                        axis=-1).reshape(-1, scenario.dim_x)
        hist = _history(scenario.dim_w, 2.5)
        for name in ("phi", "F"):
            assert getattr(scenario, name).evaluate(0.1, grid, hist).min() >= 0.0
    if workload == "chain_paths":
        assert "abs(sin(" in workloads.scenario_text(workload, 0, size)


def _history(dim_w, w):
    from bspde.scenario import PathHistory
    return PathHistory.from_increments(np.full((1, dim_w), w), 1.0)


def test_bare_directory_exits_nonzero_without_a_result():
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "adapted_tree",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_run_py_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
