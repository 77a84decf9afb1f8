"""The three benchmark workloads.

* ``fig4-quick`` / ``fig8-quick`` -- the Scenario points of
  ``repro run fig4|fig8 --quick``, run serially through
  ``run_scenario``, then served back from a warm result store.
* ``service-faults`` -- one closed-loop client of the in-process HTTP
  scenario service (``jobs=2``, ``cache="rw"``): a 48-point fault grid
  submitted cold, then resubmitted until every point is a store hit.

Each workload function returns an :class:`Outcome`: end-to-end metrics, the
output-check tally, and (traced runs) the per-layer table.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import importlib
import json
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import BUILD_POINTS, Tracer, layer_table

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
GOLDEN_FIG4 = HERE.parent / "tests" / "golden" / "fig4_quick.txt"
#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 5
#: Warm (all-hit) jobs repeat for this long: per untraced fig run, and
#: per service cycle.  A few ms per job is too short to time alone.
FIG_WARM_S = 3.0
SERVICE_WARM_S = 1.0
#: Warm jobs in every warm stage (the only ones in a traced section).
MIN_WARM_JOBS = 5
#: Progress poll intervals: a cold job runs seconds, a warm one ~90 ms.
COLD_POLL_S = 0.02
WARM_POLL_S = 0.001

#: Layers that some workload never enters.  Their self time would read
#: 0.0 s on every run of that workload, so it is printed in the table
#: but not reported as a metric; calls and share still are.
SOME_WORKLOADS = ("traffic.base", "traffic.dnn.script", "baseline.network",
                  "baseline.router", "faults.controller", "service")

#: ``examples/fault_sweep_quick.json`` as of this benchmark's creation,
#: copied so the workload cannot drift with the example.  ``seed`` and
#: ``traffic.load`` axes are added per run.
FAULT_GRID = {
    "base": {
        "name": "",
        "topology": {"backend": "patronoc", "rows": 4, "cols": 4,
                     "data_width": 32},
        "traffic": {"kind": "uniform", "load": 1.0,
                    "max_burst_bytes": 1000},
        "measure": {"warmup": 500, "window": 2000},
        "faults": {"recovery": "retransmit", "txn_timeout": 900,
                   "links": [{"src": 5, "dst": 6, "start": 600,
                              "duration": 900},
                             {"src": 6, "dst": 5, "start": 600,
                              "duration": 900}]},
    },
    "axes": {
        "faults.corrupt_rate": [0.0, 2e-04],
        "faults.recovery": ["none", "retransmit", "reroute"],
        "faults.response_faults": [False, True],
    },
}


@dataclass
class Outcome:
    #: end-to-end metrics (``--trace 0``): name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    #: further figures printed for reading, not gated: name -> (value, unit)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: median set-up time after import: builds, or service start-up
    build_s: float = 0.0
    #: per-layer metrics (``--trace 1``): name -> (value, unit)
    layers: dict = field(default_factory=dict)
    #: per-layer table for the human-readable print-out
    table: dict = field(default_factory=dict)
    #: simulated digests of the last checked pass, for ``--pin``
    digests: list = field(default_factory=list)

    def problem(self, text: str, points: int = 0) -> None:
        self.problems.append(text)
        self.failed += points


def digest(result) -> str:
    """Hash of a Result's simulated outputs (provenance excluded)."""
    payload = json.dumps([result.throughput_gib_s, result.cycles,
                          result.counters, result.faults], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def digests(results) -> list[str]:
    """Digests of a job's results; a failed point (None) digests as ""."""
    return [digest(r) if r is not None else "" for r in results]


def pinned(workload: str) -> list[str] | None:
    if not PINNED.exists():
        return None
    return json.loads(PINNED.read_text()).get(workload)


def check_digests(out: Outcome, what: str, got: list[str],
                  want: list[str] | None) -> None:
    if want is None:
        return
    if len(got) != len(want):
        out.problem(f"{what}: {len(got)} points, expected {len(want)}",
                    max(len(got), len(want)))
        return
    bad = sum(g != w for g, w in zip(got, want))
    if bad:
        out.problem(f"{what}: {bad} point digest(s) differ", bad)


def median(values) -> float:
    return statistics.median(values)


def rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(out: Outcome, snap: dict, wall_s: float, cycles: int,
                  hits: int, gets: int, overhead_s: float) -> None:
    """Fill ``out.layers`` from a tracer snapshot."""
    table = layer_table(snap, wall_s)
    out.table = table
    for layer, row in table.items():
        out.layers[f"{layer}.calls"] = (row["calls"], "count")
        if layer not in SOME_WORKLOADS:
            out.layers[f"{layer}.self_s"] = (row["self_s"], "s")
        out.layers[f"{layer}.share"] = (row["share"], "ratio")
    for name in ("store.get", "store.put"):
        out.layers[f"{name}.calls"] = (snap["calls"].get(name, 0), "count")
        out.layers[f"{name}.self_s"] = (snap["self_s"].get(name, 0.0), "s")
    stepped = snap["stepped"]
    out.layers["sim.kernel.cycles_stepped"] = (stepped, "cycles")
    out.layers["sim.kernel.skip_ratio"] = (
        1.0 - stepped / cycles if cycles else 0.0, "ratio")
    out.layers["store.hit_ratio"] = (hits / gets if gets else 0.0, "ratio")
    out.layers["trace.wall_s"] = (wall_s, "s")
    out.layers["trace.overhead_s"] = (overhead_s, "s")


# ----------------------------------------------------------------------
# fig4-quick / fig8-quick
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One serial run of every point of a figure."""

    figure: object = None  # ExperimentResult
    points: list = field(default_factory=list)  # (Scenario, Result)
    seconds: list = field(default_factory=list)
    build_s: float = 0.0
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.seconds)

    @property
    def cycles(self) -> int:
        return sum(r.cycles for _, r in self.points)


def run_pass(exp_id: str, seed: int, build: Tracer | None) -> Pass:
    """Run ``repro run <exp_id> --quick --seed <seed>`` in-process,
    timing each ``run_scenario`` call the experiment makes."""
    from repro.eval.experiments import run_experiment

    module = importlib.import_module(f"repro.eval.{exp_id}")
    inner = module.run_scenario
    one = Pass()
    build_before = build.build_s() if build is not None else 0.0

    def timed(sc):
        t0 = perf()
        result = inner(sc)
        one.seconds.append(perf() - t0)
        one.points.append((sc, result))
        return result

    module.run_scenario = timed
    try:
        one.figure = run_experiment(exp_id, quick=True, seed=seed)
    except Exception as exc:  # a raising point ends the pass
        one.error = f"{type(exc).__name__}: {exc}"
    finally:
        module.run_scenario = inner
    if build is not None:
        one.build_s = build.build_s() - build_before
    return one


class _BuildOnly(Exception):
    pass


def build_only_s(scenarios, build: Tracer) -> float:
    """Summed build time of every point, stopping each at its first
    ``Simulator.run`` call (nothing is simulated)."""
    from repro.scenarios.run import run_scenario
    from repro.sim.kernel import Simulator

    def stop(*_args, **_kwargs):
        raise _BuildOnly

    original = Simulator.__dict__["run"]
    before = build.build_s()
    Simulator.run = stop
    try:
        for sc in scenarios:
            try:
                run_scenario(sc)
            except _BuildOnly:
                continue
            raise RuntimeError(f"{sc.label} finished without simulating")
    finally:
        Simulator.run = original
    return build.build_s() - before


def paper_err_pct(exp_id: str, points) -> float:
    """Mean |simulated - paper| / paper over points with a paper value."""
    if exp_id == "fig4":
        from repro.eval.fig4 import PAPER_SATURATION as paper

        best: dict[str, float] = {}
        for _sc, r in points:
            key = r.label if r.backend == "patronoc" else f"noxim {r.label}"
            best[key] = max(best.get(key, 0.0), r.throughput_gib_s)
        pairs = [(best[k], v) for k, v in paper.items() if k in best]
    else:
        from repro.eval.fig8 import PAPER_THROUGHPUT as paper

        pairs = [(r.throughput_gib_s,
                  paper[("slim" if sc.topology.data_width <= 64 else "wide",
                         r.label)]) for sc, r in points]
    return 100.0 * statistics.mean(abs(s - p) / p for s, p in pairs)


def warm_jobs(out: Outcome, points, window_s: float
              ) -> tuple[list[float], int, int]:
    """Serve every point from a warm store (``run_sweep`` with
    ``cache="ro"``) for ``window_s`` seconds and at least
    :data:`MIN_WARM_JOBS` times; returns (job times, hits, lookups)."""
    from repro.scenarios import run_sweep
    from repro.store import ResultStore

    store = ResultStore(tempfile.mkdtemp(prefix="store-"))
    try:
        for sc, r in points:
            store.put(sc, r)
        scs = [sc for sc, _ in points]
        results = [r for _, r in points]
        times, hits, gets = [], 0, 0
        while len(times) < MIN_WARM_JOBS or sum(times) < window_s:
            t0 = perf()
            got = run_sweep(scs, cache="ro", store=store)
            times.append(perf() - t0)
            out.attempted += len(got)
            hits += got.stats.hits
            gets += got.stats.total
            if list(got) != results or got.stats.hits != len(results):
                out.problem(f"warm job {len(times)}: store results differ "
                            f"from the simulated ones", len(results))
        return times, hits, gets
    finally:
        shutil.rmtree(store.root, ignore_errors=True)


def check_pass(out: Outcome, exp_id: str, seed: int, one: Pass,
               what: str, want: list[str] | None) -> list[str]:
    out.attempted += len(one.points) + (1 if one.error else 0)
    if one.error:
        out.problem(f"{what}: point raised {one.error}", 1)
    got = [digest(r) for _, r in one.points]
    check_digests(out, what, got, want)
    if exp_id == "fig4" and seed == 1 and one.figure is not None:
        from repro.eval.report import render_text

        if not GOLDEN_FIG4.exists() or render_text(one.figure) != \
                GOLDEN_FIG4.read_text():
            out.problem(f"{what}: fig4 render differs from "
                        f"{GOLDEN_FIG4.name}", len(one.points))
    return got


def fig_workload(exp_id: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path) -> Outcome:
    workload = f"{exp_id}-quick"
    want = pinned(workload) if seed == 1 else None
    out = Outcome()
    if trace:
        return _fig_traced(exp_id, seed, out, trace_dir, want)
    build = Tracer(points=BUILD_POINTS).install()
    try:
        passes = []
        t_start = perf()
        while True:
            passes.append(run_pass(exp_id, seed, build))
            if passes[-1].error:
                break
            # Another pass only while it fits in the measured time.
            if perf() - t_start + passes[-1].wall_s > seconds:
                break
        first = passes[0]
        scs = [sc for sc, _ in first.points]
        builds = [p.build_s for p in passes if not p.error]
        builds += [build_only_s(scs, build) for _ in range(SETUP_REPEATS)]
        times, _hits, _gets = warm_jobs(out, first.points, FIG_WARM_S)
    finally:
        build.uninstall()
    got = None
    for i, one in enumerate(passes):
        these = check_pass(out, exp_id, seed, one, f"pass {i + 1}", want)
        if got is not None and these != got:
            out.problem(f"pass {i + 1} differs from pass 1", len(these))
        got = got or these
    out.digests = got
    wall = median(p.wall_s for p in passes)
    out.metrics["wall_s"] = (wall, "s")
    out.metrics["sim_kcycles_per_s"] = (first.cycles / wall / 1e3, "kcycles/s")
    out.build_s = median(builds)
    # A fig warm job takes 1-5 ms; its median moves by a third between
    # runs on a shared host, while the fastest job of the window repeats.
    out.metrics["warm_job_s"] = (min(times), "s")
    out.info["warm_job_median_s"] = (median(times), "s")
    out.metrics["peak_rss_mb"] = (rss_mb(), "MB")
    out.info["passes"] = (len(passes), "count")
    if first.points and not first.error:
        out.info["paper_err_pct"] = (paper_err_pct(exp_id, first.points),
                                     "%")
    return out


def _fig_traced(exp_id, seed, out, trace_dir, want) -> Outcome:
    tracer = Tracer(out_dir=trace_dir).install()
    try:
        t0 = perf()
        traced = run_pass(exp_id, seed, None)
        _times, hits, gets = warm_jobs(out, traced.points, 0.0)
        wall = perf() - t0
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    plain = run_pass(exp_id, seed, None)
    a = check_pass(out, exp_id, seed, traced, "traced pass", want)
    b = check_pass(out, exp_id, seed, plain, "untraced pass", want)
    if a != b:
        out.problem("traced results differ from untraced results", len(a))
    out.digests = b
    layer_metrics(out, snap, wall, traced.cycles, hits, gets,
                  traced.wall_s - plain.wall_s)
    out.info["traced_wall_s"] = (traced.wall_s, "s")
    out.info["untraced_wall_s"] = (plain.wall_s, "s")
    tracer.dump(trace_dir / "spans.json", snap)
    return out


# ----------------------------------------------------------------------
# service-faults
# ----------------------------------------------------------------------
def fault_grid(seed: int) -> dict:
    spec = json.loads(json.dumps(FAULT_GRID))
    spec["axes"]["seed"] = [seed, seed + 1]
    spec["axes"]["traffic.load"] = [0.5, 1.0]
    return spec


class Client:
    """A keep-alive HTTP client of the scenario service; with a tracer,
    every request is a ``service.<route>`` span."""

    def __init__(self, port: int, tracer: Tracer | None):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.tracer = tracer

    def request(self, route: str, method: str, path: str,
                body: bytes | None = None) -> bytes:
        span = (self.tracer.span(f"service.{route}") if self.tracer
                else contextlib.nullcontext())
        with span:
            self.conn.request(method, path, body=body, headers={
                "Content-Type": "application/json"})
            resp = self.conn.getresponse()
            data = resp.read()
        if resp.status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {resp.status} {data!r}")
        return data

    def job(self, body: bytes, poll_s: float) -> tuple[str, dict, float]:
        """Submit, then poll progress until the end event; returns
        (job id, end event, seconds from submit to end)."""
        t0 = perf()
        job = json.loads(self.request("post_jobs", "POST", "/jobs", body))
        seen = 0
        while True:
            lines = self.request("progress", "GET",
                                 f"/jobs/{job['job']}/progress?since={seen}"
                                 ).splitlines()
            seen += len(lines)
            if lines:
                last = json.loads(lines[-1])
                if last.get("event") == "end":
                    return job["job"], last, perf() - t0
            time.sleep(poll_s)

    def results(self, job_id: str) -> list:
        from repro.scenarios import Result

        payload = json.loads(self.request("results", "GET",
                                          f"/jobs/{job_id}/results"))
        return [Result.from_dict(e["result"]) if e["result"] else None
                for e in payload]

    def close(self) -> None:
        self.conn.close()


@contextlib.contextmanager
def service(tracer: Tracer | None):
    """A fresh service on an ephemeral port with an empty store; yields
    (client, seconds from construction until /healthz answered)."""
    from repro.service import make_server

    store = tempfile.mkdtemp(prefix="store-")
    t0 = perf()
    server = make_server("127.0.0.1", 0, store=store, cache="rw", jobs=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = Client(server.server_address[1], tracer)
    try:
        client.request("healthz", "GET", "/healthz")
        yield client, perf() - t0
    finally:
        client.close()
        server.shutdown()
        server.manager.shutdown()
        server.server_close()
        thread.join(timeout=30)
        shutil.rmtree(store, ignore_errors=True)


@dataclass
class Cycle:
    """One service lifetime: a cold job, then warm resubmissions."""

    start_s: float = 0.0
    cold_s: float = 0.0
    warm_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    hits: int = 0
    gets: int = 0


def service_cycle(out: Outcome, body: bytes, n_points: int, warm_s: float,
                  tracer: Tracer | None) -> Cycle:
    """Start a service, run one cold job, then resubmit the same spec
    for ``warm_s`` seconds (at least :data:`MIN_WARM_JOBS` times)."""
    cyc = Cycle()
    with service(tracer) as (client, start_s):
        cyc.start_s = start_s
        job_id, end, cyc.cold_s = client.job(body, COLD_POLL_S)
        out.attempted += n_points
        _check_end(out, "cold job", end, n_points, want_hits=0)
        cyc.digests = digests(client.results(job_id))
        cyc.hits, cyc.gets = end.get("hits", 0), n_points
        while len(cyc.warm_s) < MIN_WARM_JOBS or sum(cyc.warm_s) < warm_s:
            i = len(cyc.warm_s)
            job_id, end, seconds = client.job(body, WARM_POLL_S)
            cyc.warm_s.append(seconds)
            out.attempted += n_points
            _check_end(out, f"warm job {i + 1}", end, n_points,
                       want_hits=n_points)
            check_digests(out, f"warm job {i + 1}",
                          digests(client.results(job_id)), cyc.digests)
            cyc.hits += end.get("hits", 0)
            cyc.gets += n_points
    return cyc


def _check_end(out, what, end, n_points, want_hits) -> None:
    if end.get("status") != "done" or end.get("errors"):
        out.problem(f"{what}: ended {end}", n_points)
    elif end.get("hits") != want_hits:
        out.problem(f"{what}: {end.get('hits')} store hit(s), expected "
                    f"{want_hits}", n_points - min(n_points, want_hits))


def service_workload(seed: int, seconds: float, trace: bool,
                     trace_dir: Path) -> Outcome:
    from repro.scenarios import run_sweep
    from repro.scenarios.sweep import points_from_data

    out = Outcome()
    spec = fault_grid(seed)
    body = json.dumps(spec).encode()
    points = points_from_data(spec)
    n = len(points)
    if trace:
        tracer = Tracer(out_dir=trace_dir).install()
        try:
            t0 = perf()
            traced = service_cycle(out, body, n, 0.0, tracer)
            wall = perf() - t0
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        cycles = [service_cycle(out, body, n, 0.0, None)]
    else:
        starts = []
        for _ in range(SETUP_REPEATS):
            with service(None) as (_client, start_s):
                starts.append(start_s)
        cycles = []
        t_start = perf()
        while True:
            cycles.append(service_cycle(out, body, n, SERVICE_WARM_S, None))
            last = cycles[-1]
            if perf() - t_start + last.cold_s + sum(last.warm_s) > seconds:
                break
    # Reference: the same points in-process, no store.
    reference = run_sweep(points, jobs=2, cache="off")
    ref = digests(reference)
    check_digests(out, "in-process run_sweep", ref,
                  pinned("service-faults") if seed == 1 else None)
    runs = ([traced] if trace else []) + cycles
    for i, cyc in enumerate(runs):
        check_digests(out, f"service cycle {i + 1} vs in-process run_sweep",
                      cyc.digests, ref)
    out.digests = ref
    sim_cycles = sum(r.cycles for r in reference if r is not None)
    if trace:
        layer_metrics(out, snap, wall, sim_cycles, traced.hits, traced.gets,
                      traced.cold_s - cycles[0].cold_s)
        out.info["traced_cold_job_s"] = (traced.cold_s, "s")
        out.info["untraced_cold_job_s"] = (cycles[0].cold_s, "s")
        tracer.dump(trace_dir / "spans.json", snap)
        return out
    cold = median(c.cold_s for c in cycles)
    out.metrics["wall_s"] = (cold, "s")
    out.metrics["sim_kcycles_per_s"] = (sim_cycles / cold / 1e3,
                                        "kcycles/s")
    out.build_s = median(starts + [c.start_s for c in cycles])
    out.metrics["warm_job_s"] = (median(s for c in cycles for s in c.warm_s),
                                 "s")
    out.metrics["peak_rss_mb"] = (rss_mb(), "MB")
    out.info["cold_job_s"] = (cold, "s")  # wall_s, by its service name
    out.info["cycles"] = (len(cycles), "count")
    return out

