"""Outside-in layer tracing of bspde by wrapping its public names.

No file of the program changes: ``Tracer.install`` replaces each public
function or method in the table below with a wrapper that records a span, in
every namespace that bound the original (``solve_tree`` lives in
``bspde.solver``, ``bspde.cli``, ``bspde.analysis`` and ``bspde``), and
``Tracer.uninstall`` puts every original back.  A call nested inside a span
of the same name (``expr.evaluate`` recursing, a mollified coefficient
evaluating its source) is folded into the outer span, so counts are
outermost calls only.

Spans are kept in memory as (name, start, end, parent, command id) and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over its
spans, so the layers' self times add up to the root span exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# span name, module, attribute (``Class.method`` for methods)
TARGETS = (
    ("cli.main", "bspde.cli", "main"),
    ("scenario_file.load", "bspde.scenario_file", "load_scenario"),
    ("scenario_file.load", "bspde.scenario_file", "load_scenario_text"),
    ("scenario.evaluate", "bspde.scenario", "CoefficientField.evaluate"),
    ("scenario.validate", "bspde.scenario", "validate"),
    ("expr.evaluate", "bspde.expr", "evaluate"),
    ("wiener.build_tree", "bspde.wiener", "build_tree"),
    ("wiener.build_tree", "bspde.wiener", "build_chain"),
    ("wiener.history", "bspde.wiener", "WienerTree.history"),
    ("wiener.history", "bspde.wiener", "PathEnsemble.history"),
    ("wiener.sample_paths", "bspde.wiener", "sample_paths"),
    ("wiener.w_at", "bspde.wiener", "PathEnsemble.w_at"),
    ("space.basis", "bspde.space", "SpectralBasis.__init__"),
    ("space.assemble", "bspde.space", "assemble_L"),
    ("space.assemble", "bspde.space", "assemble_M"),
    ("space.project", "bspde.space", "SpectralBasis.project"),
    ("space.reconstruct", "bspde.space", "SpectralBasis.reconstruct"),
    ("solver.solve_tree", "bspde.solver", "solve_tree"),
    ("solver.backward", "bspde.solver", "backward_solve"),
    ("solver.regression", "bspde.solver", "solve_regression"),
    ("solver.linalg_solve", "numpy.linalg", "solve"),
    ("solver.lstsq", "numpy.linalg", "lstsq"),
    ("analysis.energy_audit", "bspde.analysis", "energy_audit"),
    ("analysis.positivity_check", "bspde.analysis", "positivity_check"),
    ("analysis.mollify", "bspde.analysis", "mollify"),
    ("oracle.solve_dense", "bspde.oracle", "solve_dense"),
    ("frozen.continuation", "bspde.frozen", "continuation_solve"),
    ("frozen.freeze_and_iterate", "bspde.frozen", "freeze_and_iterate"),
    ("frozen.solve_frozen", "bspde.frozen", "solve_frozen"),
)

def _tree_nodes(args, kwargs, result):
    return {"wiener.tree_nodes": result.n_nodes}


def _factor_flops(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    n = a.shape[-1]
    batch = a.size // (n * n)
    # LU of an n x n matrix: 2n^3/3 real flops; complex arithmetic costs 4x
    per = 2.0 * n ** 3 / 3.0 * (4.0 if a.dtype.kind == "c" else 1.0)
    return {"solver.factor_flops": per * batch}


def _dense_unknowns(args, kwargs, result):
    tree = args[1] if len(args) > 1 else kwargs["tree"]
    basis = args[2] if len(args) > 2 else kwargs["basis"]
    interior = sum(lv.n_nodes for lv in tree.levels[:-1])
    return {"oracle.dense_unknowns":
            basis.n_modes * (tree.n_nodes + interior * tree.dim_w)}


def _picard(args, kwargs, result):
    return {"frozen.picard_iterations": result[1].iterations}


COUNTERS = {
    "wiener.build_tree": _tree_nodes,
    "solver.linalg_solve": _factor_flops,
    "oracle.solve_dense": _dense_unknowns,
    "frozen.freeze_and_iterate": _picard,
}


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent span index, command id)
        self.spans: list[tuple] = []
        self.self_time: list[float] = []
        self.counters: dict = defaultdict(int)         # (command id, key) -> value
        self._stack: list[list] = []                   # [span index, child time]
        self._active: dict[int, int] = defaultdict(int)
        self.command = -1
        self._patched: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.self_time.append(0.0)
        frame = [idx, 0.0, nid, parent, time.perf_counter()]
        self._stack.append(frame)
        self._active[nid] += 1
        return frame

    def _close(self, frame: list):
        end = time.perf_counter()
        idx, child, nid, parent, start = frame
        self._stack.pop()
        self._active[nid] -= 1
        dur = end - start
        self.spans[idx] = (nid, start, end, parent, self.command)
        self.self_time[idx] = dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        frame = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(frame)

    def count(self, key: str, value: float):
        self.counters[(self.command, key)] += value

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(key, value)
            return result
        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target that exists; missing names are skipped."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for name, modname, attr in TARGETS:
                mod = importlib.import_module(modname)
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = owner.__dict__.get(fn_name)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                if owner_name:
                    self._set(owner, fn_name, wrapper)
                    continue
                namespaces = [mod] + [m for k, m in sorted(sys.modules.items())
                                      if (k == "bspde" or k.startswith("bspde."))
                                      and m is not mod]
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def aggregate(self, command: int | None = None) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict = {}
        for (nid, start, end, _parent, cmd), self_s in zip(self.spans, self.self_time):
            if command is not None and cmd != command:
                continue
            rec = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += self_s
        return out

    def layer_self(self) -> dict:
        out: dict = defaultdict(float)
        for name, (_calls, _incl, self_s) in self.aggregate().items():
            out[name.partition(".")[0]] += self_s
        return dict(out)

    def counter_totals(self, command: int | None = None) -> dict:
        out: dict = defaultdict(int)
        for (cmd, key), value in self.counters.items():
            if command is None or cmd == command:
                out[key] += value
        return dict(out)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "command"],
            "spans": self.spans,
            "counters": [[cmd, key, value] for (cmd, key), value in self.counters.items()],
        }


def installed_wrappers() -> list[str]:
    """Wrappers currently installed anywhere a target could live."""
    found = []
    for modname in ["numpy.linalg"] + sorted(k for k in sys.modules
                                            if k == "bspde" or k.startswith("bspde.")):
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "__bench_wrapped__"):
                found.append(f"{modname}.{key}")
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    if hasattr(member, "__bench_wrapped__"):
                        found.append(f"{modname}.{key}.{attr}")
    return found
