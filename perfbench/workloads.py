"""The benchmark's three workloads and their correctness gates.

Each workload function takes the workload seed, the measuring time and
whether to trace, and returns an :class:`Outcome`: the metrics, the
operation counts and every failure by name.  Inputs are generated here
from the seed and handed to the program as scenario files or request
bodies; the program never sees the seed itself.  See ``run.py`` for the
metric definitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from tracer import BENCH, LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
COLD_SEEDS = Path(__file__).resolve().parent / "cold_seeds.json"
WORK = ROOT / ".perfbench"

GALLERY = ("fig14", "fig15", "grid100", "churn_tree", "validation", "geo1000")
COLD_KINDS = ("fig14", "fig15", "grid100", "churn_tree")
#: Cold seeds screened for ``cold_seeds.json`` (see screen_cold_seeds).
COLD_CANDIDATES = 120

#: Iterations of the host-speed probe, a fixed pure-Python loop.
PROBE_LOOPS = 250_000
#: Probes per second of the timed operation before a gap.
PROBES_PER_S = 4
#: Probe time of the reference host that end-to-end timings are scaled
#: to.  A shared VM's speed drifts by up to 2x over minutes; for work
#: done one process at a time, a timing divided by the probe times taken
#: just before and after it keeps its program-made part and loses most
#: of that drift.
PROBE_REF_S = 0.01


@dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`FULL` is the benchmark, :data:`TINY` its tests."""

    sweep_horizon: float = 10.0
    sweep_replications: int = 32
    gallery: tuple[str, ...] = GALLERY
    #: Warm requests per gallery scenario in one request pass.
    warm_per_scenario: int = 3
    #: Process launches timed for ``setup_s`` (median reported).
    launches: int = 5
    #: Timed units an untraced run measures at least.
    min_units: int = 2


FULL = Scale()
TINY = Scale(
    sweep_horizon=4.0,
    sweep_replications=2,
    gallery=GALLERY[:5],
    warm_per_scenario=1,
    launches=1,
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    #: Every printed report, in order (the tests compare them).
    reports: list[str] = field(default_factory=list)
    #: Unscaled figures printed beside the metrics: the median probe
    #: time and the median unit time in plain seconds.
    raw: dict[str, float] = field(default_factory=dict)


# -- shared helpers ---------------------------------------------------------


def probe() -> float:
    """Seconds this host takes for :data:`PROBE_LOOPS` loop iterations."""
    x = 0
    t0 = time.perf_counter()
    for k in range(PROBE_LOOPS):
        x += k
    return time.perf_counter() - t0


def probe_gap(previous_s: float = 0.0) -> list[float]:
    """The probes for one gap between timed operations.

    :data:`PROBES_PER_S` per second of the operation before the gap, and
    at least one.  A single probe is as noisy as the host is over a few
    milliseconds; a long operation averages that noise out of its own
    time, so it gets as many probes.
    """
    return [probe() for _ in range(max(1, round(previous_s * PROBES_PER_S)))]


def scaled(times: list[float], gaps: list[list[float]]) -> list[float]:
    """``times`` at the reference host speed.

    ``gaps[i]`` and ``gaps[i + 1]`` are the probes taken just before and
    just after ``times[i]``; the median of both scales it.
    """
    return [
        t * PROBE_REF_S / statistics.median(before + after)
        for t, before, after in zip(times, gaps, gaps[1:])
    ]


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}


def _tail(values: list[float]) -> float:
    """The 90th percentile, or the highest one that has ten samples beyond it.

    With fewer than 100 samples the 90th percentile rests on fewer than
    ten values and reads mostly noise; the percentile falls back
    towards the median (never below it).
    """
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    q = max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / len(data))))
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _typical(groups: dict[str, list[float]]) -> float:
    """Geometric mean over the groups of each group's median."""
    return statistics.geometric_mean(statistics.median(g) for g in groups.values())


def _read_line(proc: subprocess.Popen, marker: bytes, timeout: float) -> bytes:
    """Read ``proc``'s stdout until a line containing ``marker``."""
    fd = proc.stdout.fileno()
    buf = b""
    deadline = time.monotonic() + timeout
    while True:
        for line in buf.split(b"\n")[:-1]:
            if marker in line:
                return line
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no {marker!r} line within {timeout:g} s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"process exited before printing {marker!r}: {buf!r}"
                )
            buf += chunk


def _reap(proc: subprocess.Popen, sig: int, timeout: float = 30.0) -> int:
    """Signal ``proc``, wait for it, return its peak RSS in KiB."""
    if proc.poll() is None:
        proc.send_signal(sig)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        time.sleep(0.02)
    proc.stdout.close()
    return usage.ru_maxrss


def _self_peak_rss_mb() -> float:
    """Largest peak RSS of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


_READY_SCRIPT = """\
import sys
import repro.cli
from repro.scenarios import load_scenario
load_scenario(sys.argv[1]).execution.resolve()
print("ready", flush=True)
"""


def _launch_times(spec_path: Path, launches: int) -> list[float]:
    """Seconds from process launch to ready (imports, load, resolve), scaled."""
    times = []
    gaps = [probe_gap()]
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _READY_SCRIPT, str(spec_path)],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
        )
        try:
            _read_line(proc, b"ready", 120.0)
            times.append(time.perf_counter() - t0)
        finally:
            _reap(proc, signal.SIGTERM)
        gaps.append(probe_gap(times[-1]))
    return scaled(times, gaps)


class _Capture:
    """Keep the result objects the CLI's run functions render.

    ``run_scenario`` returns only an exit code; the sensing-event and
    operation counts come from the experiment results the CLI looks up by
    name and renders.
    """

    NAMES = ("run_node_energy_sweep", "run_network_scenario")

    def __init__(self) -> None:
        self.results: list[Any] = []
        self._saved: dict[str, Any] = {}

    def __enter__(self) -> "_Capture":
        import repro.cli as cli

        for name in self.NAMES:
            fn = self._saved[name] = getattr(cli, name)

            def keep(*args, _fn=fn, **kwargs):
                result = _fn(*args, **kwargs)
                self.results.append(result)
                return result

            setattr(cli, name, keep)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        import repro.cli as cli

        for name, fn in self._saved.items():
            setattr(cli, name, fn)

    def take(self) -> tuple[int, int]:
        """(sensing events, operations) of the results since the last take."""
        events = ops = 0
        for r in self.results:
            if hasattr(r, "nodes"):
                events += sum(n.events_completed for n in r.nodes)
                ops += len(r.nodes)
            else:
                events += sum(x.events_completed for reps in r.replicates for x in reps)
                ops += len(r.thresholds)
        self.results.clear()
        return events, ops


def _run_captured(spec, rx) -> tuple[int, str]:
    from repro import scenarios

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = scenarios.run_scenario(spec, rx)
    return code, buf.getvalue()


def load_digests() -> dict[str, str]:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- generated inputs -------------------------------------------------------


def node_sweep_spec(scale: Scale = FULL) -> dict[str, Any]:
    """The gallery Fig. 14 sweep under the vectorized engine.

    Its input is fixed (the scenario's own ``params.seed``): a workload
    seed would only change the random streams, and with them the work.
    """
    data = yaml.safe_load((SCENARIOS / "fig14.yaml").read_text())
    data.pop("smoke", None)
    data["params"]["horizon"] = scale.sweep_horizon
    data["execution"] = {
        "engine": "vectorized",
        "replications": scale.sweep_replications,
        "workers": 1,
        "backend": "local",
    }
    return data


def _cold_seed(j: int) -> int:
    """The ``j``-th cold ``params.seed``; 1000 apart, so no two cold
    requests share a node seed."""
    return 10_000_000 + 1000 * j


def screen_cold_seeds(keep: int = 40) -> dict[str, list[int]]:
    """Cold ``params.seed`` values whose smoke run does near-median work.

    A smoke run's sensing-event count, and with it its time, varies by
    up to 2x with ``params.seed``; so cold requests draw their seeds from
    a pool of the ``keep`` of the first :data:`COLD_CANDIDATES` seeds
    whose event counts sit closest to the median of their kind.
    """
    raw = {kind: yaml.safe_load((SCENARIOS / f"{kind}.yaml").read_text()) for kind in COLD_KINDS}
    pools = {}
    for kind in COLD_KINDS:
        events = {}
        for j in range(COLD_CANDIDATES):
            cold_seed = _cold_seed(j)
            body = {"scenario": raw[kind], "smoke": True, "overrides": [f"params.seed={cold_seed}"]}
            _, events[cold_seed] = _reference(body)
        middle = statistics.median(events.values())
        pools[kind] = sorted(sorted(events, key=lambda s: abs(events[s] - middle))[:keep])
    return pools


def serve_plan(seed: int, scale: Scale = FULL):
    """Endless request passes: ``(kind, scenario, body)`` lists.

    A pass holds every gallery scenario ``warm_per_scenario`` times
    (warm) and one cold request per COLD_KINDS entry, shuffled by the
    seed; a fixed mix keeps passes comparable.  Cold requests get a
    fresh ``params.seed``: the kind's screened pool in ``cold_seeds.json``
    in an order shuffled by the seed, then unscreened seeds past the
    candidates once a long run has used the pool up.
    """
    rng = random.Random(seed)
    raw = {
        name: yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
        for name in set(scale.gallery) | set(COLD_KINDS)
    }
    pools = json.loads(COLD_SEEDS.read_text())
    queues = {kind: rng.sample(pools[kind], len(pools[kind])) for kind in COLD_KINDS}
    spare = (_cold_seed(j) for j in itertools.count(COLD_CANDIDATES))
    while True:
        items = [("warm", name) for name in scale.gallery] * scale.warm_per_scenario
        items += [("cold", kind) for kind in COLD_KINDS]
        rng.shuffle(items)
        out = []
        for kind, name in items:
            body: dict[str, Any] = {"scenario": raw[name], "smoke": True}
            if kind == "cold":
                queue = queues[name]
                cold_seed = queue.pop() if queue else next(spare)
                body["overrides"] = [f"params.seed={cold_seed}"]
            out.append((kind, name, body))
        yield out


def gallery_bodies(scale: Scale = FULL) -> list[tuple[str, dict[str, Any]]]:
    return [
        (
            name,
            {
                "scenario": yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text()),
                "smoke": True,
            },
        )
        for name in scale.gallery
    ]


# -- node-sweep -------------------------------------------------------------


def _scenario_units(
    workload: str,
    spec_data: dict[str, Any],
    seconds: float,
    tracer: Tracer | None,
    scale: Scale,
) -> Outcome:
    """Repeat one ``run_scenario`` call for ``seconds``; check every report."""
    from repro import scenarios

    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        spec_path = Path(tmp) / f"{workload}.json"
        spec_path.write_text(json.dumps(spec_data))
        setup = [] if tracer else _launch_times(spec_path, scale.launches)
        spec = scenarios.load_scenario(spec_path)
        rx = spec.execution.resolve()

    expected = None
    if scale == FULL:
        expected = load_digests().get(workload)
    latencies: list[float] = []
    events: list[int] = []
    reports: list[str] = []
    codes: list[int] = []
    ops_per_unit = 0
    min_units = 1 if tracer else scale.min_units
    with _Capture() as capture:
        # One untimed warm-up call: the first call in a process also pays
        # for lazy imports and caches, by a share that varies from run to
        # run.  Its report is checked all the same.
        if tracer:
            tracer.phase = "untimed"
        t0 = time.perf_counter()
        code, report = _run_captured(spec, rx)
        warmup_s = time.perf_counter() - t0
        _, ops_per_unit = capture.take()
        reports.append(report)
        codes.append(code)
        # The traced run reports plain seconds and takes no probes.
        gaps = [] if tracer else [probe_gap(warmup_s)]
        if tracer:
            tracer.phase = "timed"
        start = time.perf_counter()
        while len(latencies) < min_units or (
            time.perf_counter() - start + statistics.fmean(latencies) / 2 < seconds
        ):
            span = tracer.open(BENCH) if tracer else None
            t0 = time.perf_counter()
            code, report = _run_captured(spec, rx)
            latencies.append(time.perf_counter() - t0)
            if span:
                tracer.close(span)
            else:
                gaps.append(probe_gap(latencies[-1]))
            unit_events, ops_per_unit = capture.take()
            events.append(unit_events)
            reports.append(report)
            codes.append(code)
    if tracer:
        tracer.phase = "untimed"

    failures = []
    for i, (code, report) in enumerate(zip(codes, reports)):
        if code != 0:
            failures.append(f"{workload} unit {i}: exit code {code}")
        elif expected is not None and sha256(report) != expected:
            failures.append(
                f"{workload} unit {i}: report digest {sha256(report)[:16]} "
                f"differs from the recorded {expected[:16]}"
            )
        elif report != reports[0]:
            failures.append(f"{workload} unit {i}: report differs from unit 0")
    attempted = len(reports) * max(ops_per_unit, 1)
    failed = len(failures) * max(ops_per_unit, 1)
    if tracer:
        layer = tracer.layer_metrics(len(latencies), sum(latencies))
        metrics = {name: (value, LAYER_METRICS[name]) for name, value in layer.items()}
        return Outcome(metrics, attempted, failed, failures, reports)
    # No store: every call computes from scratch (cold), and every timed
    # call follows the warm-up in the same process (warm).
    units = scaled(latencies, gaps)
    wall = statistics.median(units)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "events_per_s": (
            statistics.median(e / t for e, t in zip(events, units)),
            "1/s",
        ),
        "peak_rss_mb": (_self_peak_rss_mb(), "MB"),
        "success_frac": ((attempted - failed) / attempted, "ratio"),
        "requests_per_s": (1.0 / wall, "1/s"),
        "warm_p50_ms": (wall * 1000.0, "ms"),
        "warm_p90_ms": (_tail(units) * 1000.0, "ms"),
        "cold_p50_ms": (wall * 1000.0, "ms"),
    }
    raw = {
        "probe_s": statistics.median(p for gap in gaps for p in gap),
        "wall_s": statistics.median(latencies),
    }
    return Outcome(metrics, attempted, failed, failures, reports, raw)


def _work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def node_sweep(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Outcome:
    data = node_sweep_spec(scale)
    return _traced(
        trace,
        lambda tracer: _scenario_units("node-sweep", data, seconds, tracer, scale),
    )


def _traced(trace: bool, body) -> Outcome:
    if not trace:
        return body(None)
    with Tracer() as tracer:
        return body(tracer)


# -- serve-mixed ------------------------------------------------------------


def _reference(body: dict[str, Any]) -> tuple[str, int]:
    """The ``scenario run`` report of one request body, and its events."""
    from repro.serving import parse_request

    spec = parse_request(body)
    rx = spec.execution.with_overrides(backend="local", store_dir=None).resolve()
    with _Capture() as capture:
        code, report = _run_captured(spec, rx)
        events, _ = capture.take()
    if code != 0:
        raise RuntimeError(f"reference run of {spec.name} exited {code}")
    return report, events


def _check_response(
    label: str, snapshot: dict[str, Any], reference: str, warm: bool
) -> str | None:
    if snapshot.get("state") != "done":
        return f"{label}: job {snapshot.get('state')}: {snapshot.get('error')}"
    result = snapshot.get("result") or {}
    if result.get("exit_code") != 0:
        return f"{label}: exit code {result.get('exit_code')}"
    if result.get("output") != reference:
        return f"{label}: output differs from scenario run"
    if warm and (result.get("store") or {}).get("misses", 1) != 0:
        return f"{label}: warm request missed the store {result['store']}"
    return None


def serve_mixed(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Outcome:
    from repro.serving import query_server

    work = Path(tempfile.mkdtemp(dir=_work_dir()))
    tracer = Tracer().install() if trace else None
    server = proc = service = None
    try:
        setup: list[float] = []
        if tracer:
            from repro.runtime.config import ExecutionConfig
            from repro.serving import SweepService, serve_http

            service = SweepService(
                ExecutionConfig(backend="local", store_dir=str(work / "store"))
            )
            server, _thread = serve_http(service)
            host, port = server.server_address[:2]
        else:
            launch_gaps = [probe_gap()]
            for i in range(scale.launches):
                t0 = time.perf_counter()
                launched = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "serve",
                        "--backend", "local",
                        "--store", str(work / f"store{i}"),
                        "--port", "0",
                    ],
                    cwd=ROOT,
                    env=_env(),
                    stdout=subprocess.PIPE,
                )
                try:
                    line = _read_line(launched, b"listening on", 120.0)
                except BaseException:
                    _reap(launched, signal.SIGKILL)
                    raise
                setup.append(time.perf_counter() - t0)
                if proc is not None:
                    _reap(proc, signal.SIGINT)
                proc = launched
                launch_gaps.append(probe_gap(setup[-1]))
            setup = scaled(setup, launch_gaps)
            host, port = line.decode().rsplit(" ", 1)[1].strip().rsplit(":", 1)
        url = f"http://{host}:{port}"

        if tracer:
            tracer.phase = "untimed"
        failures: list[str] = []
        references: dict[str, str] = {}
        for name, body in gallery_bodies(scale):
            snapshot = query_server(url, body, timeout=120.0)
            references[name], _ = _reference(body)
            problem = _check_response(f"fill {name}", snapshot, references[name], False)
            if problem:
                failures.append(problem)

        # (pass, kind, scenario, body, latency, job snapshot) per request
        done: list[tuple[int, str, str, dict, float, dict]] = []
        passes: list[float] = []
        plan = serve_plan(seed, scale)
        gaps = [] if tracer else [probe_gap()]
        if tracer:
            tracer.phase = "timed"
        start = time.perf_counter()
        min_units = 1 if tracer else scale.min_units
        while len(passes) < min_units or (
            time.perf_counter() - start + statistics.fmean(passes) / 2 < seconds
        ):
            span = tracer.open(BENCH) if tracer else None
            t_pass = time.perf_counter()
            for kind, name, body in next(plan):
                t0 = time.perf_counter()
                snapshot = query_server(url, body, timeout=120.0)
                latency = time.perf_counter() - t0
                done.append((len(passes), kind, name, body, latency, snapshot))
                if not tracer:
                    gaps.append(probe_gap(latency))
            passes.append(time.perf_counter() - t_pass)
            if span:
                tracer.close(span)
        if tracer:
            tracer.phase = "untimed"

        if proc is not None:
            server_rss_mb = _reap(proc, signal.SIGINT) / 1024.0
            proc = None
        pass_events = [0] * len(passes)
        for i, (n, kind, name, body, _lat, snapshot) in enumerate(done):
            if kind == "warm":
                reference = references[name]
            else:
                reference, events = _reference(body)
                pass_events[n] += events
            problem = _check_response(
                f"request {i} ({kind} {name} {body.get('overrides', [])})",
                snapshot, reference, kind == "warm",
            )
            if problem:
                failures.append(problem)

        attempted = len(done) + len(scale.gallery)
        failed = len(failures)
        if tracer:
            layer = tracer.layer_metrics(len(passes), sum(passes))
            results = [s["result"] for *_, s in done if s.get("result")]
            layer["serving.queue_ms"] = statistics.median(
                (s["started"] - s["created"]) * 1000.0
                for *_, s in done
                if s.get("started") is not None
            )
            layer["serving.exec_ms"] = statistics.median(
                r["elapsed_ms"] for r in results
            )
            layer["serving.overhead_ms"] = statistics.median(
                lat * 1000.0 - s["result"]["elapsed_ms"]
                for *_, lat, s in done
                if s.get("result")
            )
            metrics = {name: (value, LAYER_METRICS[name]) for name, value in layer.items()}
            raw = {}
        else:
            # Each request is scaled by the probes on either side of it; a
            # pass takes the sum of its scaled requests, without the probes.
            requests = scaled([lat for *_, lat, _s in done], gaps)
            scaled_passes = [0.0] * len(passes)
            latency: dict[str, dict[str, list[float]]] = {"warm": {}, "cold": {}}
            for (n, kind, name, *_), lat in zip(done, requests):
                scaled_passes[n] += lat
                latency[kind].setdefault(name, []).append(lat)
            warm = [lat for lats in latency["warm"].values() for lat in lats]
            wall = statistics.median(scaled_passes)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (wall, "s"),
                "events_per_s": (
                    statistics.median(
                        e / t for e, t in zip(pass_events, scaled_passes)
                    ),
                    "1/s",
                ),
                "peak_rss_mb": (server_rss_mb, "MB"),
                "success_frac": ((attempted - failed) / attempted, "ratio"),
                "requests_per_s": (len(done) / len(passes) / wall, "1/s"),
                # The scenarios differ in cost, so a pooled median would
                # sit in the gap between two of them and jump across it;
                # a mean over every scenario's median does not.
                "warm_p50_ms": (_typical(latency["warm"]) * 1000.0, "ms"),
                "warm_p90_ms": (_tail(warm) * 1000.0, "ms"),
                "cold_p50_ms": (_typical(latency["cold"]) * 1000.0, "ms"),
            }
            raw = {
                "probe_s": statistics.median(p for gap in gaps for p in gap),
                "wall_s": statistics.median(
                    sum(lat for n, *_, lat, _s in done if n == i)
                    for i in range(len(passes))
                ),
            }
        reports = [s.get("result", {}).get("output", "") for *_, s in done]
        return Outcome(metrics, attempted, failed, failures, reports, raw)
    finally:
        if proc is not None:
            _reap(proc, signal.SIGKILL)
        if server is not None:
            server.shutdown()
            server.server_close()
        if service is not None:
            service.close()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


WORKLOADS = {
    "node-sweep": node_sweep,
    "serve-mixed": serve_mixed,
}


def record_digests() -> dict[str, str]:
    """Digest of node-sweep's report, from one untimed run."""
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(node_sweep_spec())
    code, report = _run_captured(spec, spec.execution.resolve())
    if code != 0:
        raise RuntimeError(f"node-sweep exited {code}")
    return {"node-sweep": sha256(report)}
