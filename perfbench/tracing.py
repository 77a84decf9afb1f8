"""Layer tracer: times the public entry points of the ``src/repro``
modules from outside the package, so no source file changes.

Each entry point belongs to a layer named after its module.  A span's
self time is its duration minus the part its nested spans cover, so the
self times of all layers partition the traced host time of a thread.

Hot per-cycle entry points (component ``step`` methods, the per-hop
route decode) run millions of times per workload, so they are folded
into per-layer call counts and self time as they close.  Every other
entry point (kernel runs, builds, scenario points, sweeps, store
accesses, service routes) also keeps its span -- (name, start, end,
parent) -- in memory until :meth:`Tracer.dump` writes them out.

The wrappers must go in before any fabric is built: construction caches
bound methods (``PacketMesh._route_fn``, ``DmaEngine._sink`` shadowed
by ``_sink_armed``), and a fabric built before :meth:`Tracer.install`
would keep stepping untraced code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

#: (span name, module, attribute) of each hot entry point whose first
#: argument after ``self`` is the current cycle ``now``.
STEP_POINTS = (
    ("axi.xbar", "repro.axi.xbar", "AxiCrossbar.step"),
    ("endpoints.dma", "repro.endpoints.dma", "DmaEngine.step"),
    ("endpoints.memory", "repro.endpoints.memory", "MemorySlave.step"),
    ("traffic.base", "repro.traffic.base", "RandomTraffic.step"),
    ("traffic.dnn.script", "repro.traffic.dnn.script", "CoreScript.step"),
    ("baseline.network", "repro.baseline.network", "PacketMesh.step"),
    ("baseline.router", "repro.baseline.router", "Router.step"),
    ("faults.controller", "repro.faults.controller", "FaultController.step"),
)

#: Hot entry points without a cycle argument.
CALL_POINTS = (
    ("noc.routing", "repro.noc.routing", "ComputedRouter.__call__"),
)

#: Fabric constructors and traffic/script installs: the set-up layer.
BUILD_POINTS = (
    ("build", "repro.noc.network", "NocNetwork.__init__"),
    ("build", "repro.baseline.network", "PacketMesh.__init__"),
    ("build", "repro.traffic.dnn.workloads", "DnnWorkload.build_network"),
    ("build", "repro.traffic.dnn.workloads", "DnnWorkload.install"),
    ("build", "repro.traffic.base", "RandomTraffic.install"),
)

#: Coarse entry points whose spans are kept.
SPAN_POINTS = BUILD_POINTS + (
    ("sim.kernel", "repro.sim.kernel", "Simulator.run"),
    ("scenarios.run", "repro.scenarios.run", "run_scenario"),
    ("scenarios.sweep", "repro.scenarios.sweep", "run_sweep"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.put", "repro.store.store", "ResultStore.put"),
)

#: Reported layers, in table order.  A span name belongs to the layer
#: that is its longest dotted prefix (``store.get`` -> ``store``).
LAYERS = (
    "sim.kernel", "axi.xbar", "noc.routing", "endpoints.dma",
    "endpoints.memory", "traffic.base", "traffic.dnn.script",
    "baseline.network", "baseline.router", "faults.controller", "build",
    "scenarios.run", "scenarios.sweep", "store", "service",
)


def layer_of(name: str) -> str:
    while name not in LAYERS:
        name, dot, _ = name.rpartition(".")
        if not dot:
            raise KeyError(name)
    return name


class _Thread:
    """One thread's open frames and totals (no locking on the hot path)."""

    def __init__(self) -> None:
        #: child-time accumulator of each open frame; [0] is the root.
        self.child = [0.0]
        #: index into ``spans`` of each open coarse span.
        self.open: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive time of outermost spans, per span name.
        self.total_s: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.last_now = -1
        self.stepped = 0


class Tracer:
    """Installs wrappers on the chosen entry points and aggregates what
    they measure.  ``points`` defaults to every layer; the untraced run
    installs only :data:`BUILD_POINTS`, to time set-up."""

    def __init__(self, points=None, out_dir: Path | None = None):
        if points is None:
            points = STEP_POINTS + CALL_POINTS + SPAN_POINTS
        self.points = tuple(points)
        self.out_dir = out_dir
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._flushes = 0

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _Thread:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
            return st

    def threads(self) -> list[_Thread]:
        with self._lock:
            return list(self._threads)

    # -- spans recorded by the benchmark's own client code -------------
    @contextlib.contextmanager
    def span(self, name: str):
        """``with tracer.span(name):`` -- a span around client code."""
        st, t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(st, name, t0)

    def _enter(self, name: str) -> tuple[_Thread, float]:
        st = self._state()
        st.child.append(0.0)
        st.depth[name] += 1
        parent = st.open[-1] if st.open else -1
        st.open.append(len(st.spans))
        t0 = perf()
        st.spans.append([name, t0, 0.0, parent])
        return st, t0

    def _exit(self, st: _Thread, name: str, t0: float) -> None:
        t1 = perf()
        dt = t1 - t0
        st.spans[st.open.pop()][2] = t1
        child = st.child.pop()
        st.self_s[name] += dt - child
        st.calls[name] += 1
        st.child[-1] += dt
        st.depth[name] -= 1
        if not st.depth[name]:
            st.total_s[name] += dt

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, name, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def _call_wrapper(self, name, fn):
        state = self._state

        @functools.wraps(fn)
        def traced(*args):
            st = state()
            child = st.child
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t0
                st.self_s[name] += dt - child.pop()
                st.calls[name] += 1
                child[-1] += dt

        return traced

    def _step_wrapper(self, name, fn):
        state = self._state

        @functools.wraps(fn)
        def traced(obj, now, *args):
            st = state()
            if now != st.last_now:
                st.last_now = now
                st.stepped += 1
            child = st.child
            child.append(0.0)
            t0 = perf()
            try:
                return fn(obj, now, *args)
            finally:
                dt = perf() - t0
                st.self_s[name] += dt - child.pop()
                st.calls[name] += 1
                child[-1] += dt

        return traced

    def install(self) -> "Tracer":
        """Wrap every entry point.  Module-level functions are replaced
        in every ``repro`` module that imported them by name."""
        kinds = ([(p, self._step_wrapper) for p in STEP_POINTS]
                 + [(p, self._call_wrapper) for p in CALL_POINTS]
                 + [(p, self._span_wrapper) for p in SPAN_POINTS])
        for (name, module, attr), make in kinds:
            if (name, module, attr) not in self.points:
                continue
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = make(name, original)
            if path:
                self._replace(owner, leaf, original, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, leaf, None) is original):
                    self._replace(mod, leaf, original, wrapped)
        if self.out_dir is not None:
            self._wrap_worker_chunks()
        return self

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- sweep worker processes ----------------------------------------
    def _wrap_worker_chunks(self) -> None:
        """Pool workers are forked with the wrappers in place; each
        chunk they run writes that worker's totals to ``out_dir`` so the
        parent can merge them (worker processes end without running
        exit hooks).  The wrapper keeps ``_run_chunk``'s module and
        name, so it pickles by reference like the original."""
        sweep = importlib.import_module("repro.scenarios.sweep")
        original = sweep._run_chunk
        tracer = self

        @functools.wraps(original)
        def run_chunk(scs):
            if os.getpid() != tracer._pid:
                tracer._pid = os.getpid()
                tracer._threads = []
                tracer._local = threading.local()
                tracer._lock = threading.Lock()
            try:
                return original(scs)
            finally:
                tracer._flush_worker()

        self._replace(sweep, "_run_chunk", original, run_chunk)

    def _flush_worker(self) -> None:
        self._flushes += 1
        path = self.out_dir / f"worker-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps(self._snapshot(self.threads())))
        self._threads = []
        self._local = threading.local()

    @staticmethod
    def _snapshot(threads) -> dict:
        snap = {"pid": os.getpid(), "calls": defaultdict(int),
                "self_s": defaultdict(float), "total_s": defaultdict(float),
                "stepped": 0, "spans": []}
        for st in threads:
            for key in ("calls", "self_s", "total_s"):
                for name, value in getattr(st, key).items():
                    snap[key][name] += value
            snap["stepped"] += st.stepped
            snap["spans"].extend(st.spans)
        return snap

    def snapshot(self) -> dict:
        """Totals of this process plus every worker file in ``out_dir``."""
        snap = self._snapshot(self.threads())
        snap["workers"] = []
        if self.out_dir is not None:
            for path in sorted(self.out_dir.glob("worker-*.json")):
                worker = json.loads(path.read_text())
                for key in ("calls", "self_s", "total_s"):
                    for name, value in worker[key].items():
                        snap[key][name] += value
                snap["stepped"] += worker["stepped"]
                snap["workers"].append(
                    {"pid": worker["pid"], "spans": worker["spans"]})
        return snap

    def build_s(self) -> float:
        """Summed duration of outermost build spans in this process."""
        return sum(st.total_s["build"] for st in self.threads())

    def dump(self, path: Path, snap: dict) -> None:
        """Write every kept span: (name, start, end, parent index)."""
        path.write_text(json.dumps({
            "spans": snap["spans"], "workers": snap["workers"],
            "calls": snap["calls"], "self_s": snap["self_s"]}))


def layer_table(snap: dict, wall_s: float) -> dict[str, dict]:
    """Per-layer calls, self time and share of ``wall_s``."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, calls in snap["calls"].items():
        table[layer_of(name)]["calls"] += calls
    for name, self_s in snap["self_s"].items():
        table[layer_of(name)]["self_s"] += self_s
    for row in table.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return table
