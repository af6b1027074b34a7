"""The repository benchmark: two workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload node-sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the run's provenance (host cores, Python and NumPy
versions, git sha, workload seed, run length), every metric by name
and unit, the unscaled unit time and probe time (see *Host speed*),
and every failed check by name.  ``--record FILE`` appends the
provenance and the result to ``FILE`` as one JSON line.

Workloads
---------
``node-sweep``
    ``run_scenario`` on ``scenarios/fig14.yaml`` with
    ``engine=vectorized``, 32 replications, a 10 s horizon,
    ``workers=1``, the local backend and no store.  Nearly all the time
    is in ``core.fast.run_ensemble``; store, dispatch, topology and
    serving are idle, so vectorized-kernel gains show here and runtime,
    store or serving changes must read as no change.  The input is
    fixed: a seed would only change the random streams, and with them
    the amount of work.
``serve-mixed``
    One closed-loop client sends requests over HTTP to a
    ``repro.cli serve --backend local --store <fresh dir>`` subprocess.
    Before timing, the six gallery scenarios run once at ``--smoke``
    scale to fill the store.  A request pass holds each gallery
    scenario three times (warm: served from the store) and one cold
    request each of fig14, fig15, grid100 and churn_tree (about 1 in 5)
    with a fresh ``params.seed``, in an order shuffled by the seed.  A
    smoke run's work varies by up to 2x with its seed, so cold seeds
    come from a pool per scenario, screened for near-median sensing
    events (``cold_seeds.json``; ``--update-cold-seeds`` re-screens it),
    in an order the seed shuffles.  Warm requests exercise key hashing,
    store reads, rendering and HTTP; cold ones add store writes and small
    kernel runs, so a change that speeds reads by slowing writes shows.
    The cold network scenarios also run topology builds, churn
    schedules, one net build per churn segment, the interpreted kernel,
    task dispatch and shard merge.

A third workload, a 200-node churning network on a two-worker process
pool, was dropped: its times spread by up to a fifth from run to run on
a 2-vCPU host, and no host-speed probe tracked them (see *Host speed*).
The layers it exercised are all measured by serve-mixed's cold
requests.

A *unit* is one ``run_scenario`` call (node-sweep) or one request pass
(serve-mixed).  node-sweep first makes one untimed warm-up call, because
the first call in a process also pays for lazy imports and caches, by a
share that varies from run to run; its report is checked like the
others.  An untraced run then repeats units for ``--seconds`` (at least
two); the timings below are medians over them.

Host speed
----------
On a shared VM the whole host slows and recovers by up to 2x over
minutes, which no median within one run removes.  So every end-to-end
timing is scaled to a reference host speed: a fixed pure-Python loop
(``workloads.probe``) is timed in the gaps just before and just after
each unit and each ``setup_s`` launch, four times per second of the
operation before the gap and at least once, and the timing is
multiplied by ``PROBE_REF_S`` over the median of the probe times of
both gaps; serve-mixed probes between requests and scales each one.
This tracks work done one process at a time, as in both workloads.  It
did not track a process pool keeping both CPUs busy, nor did probes
pinned to each CPU or a memory-bound probe.  The probe runs while the
program is idle and shares no code with it, so a program change moves
the scaled timing by the same share as the plain one.  The untraced
output also prints the unscaled median unit time and probe time.

End-to-end metrics (``--trace 0``)
----------------------------------
Each metric is reported for every workload.

=================  =====  ======  =========================================
metric             unit   better  definition
=================  =====  ======  =========================================
``setup_s``        s      lower   process launch to ready (imports,
                                  ``load_scenario``, ``ExecutionConfig.
                                  resolve``; serve-mixed: until the server
                                  announces it is listening), median of
                                  five launches
``wall_s``         s      lower   median unit time
``events_per_s``   1/s    higher  completed *sensing events* (the sum of
                                  ``events_completed`` over every result)
                                  per second of a unit, median over units;
                                  serve-mixed counts the cold requests'
                                  simulations.  Never Petri firings.
``peak_rss_mb``    MB     lower   largest peak RSS of the workload process
                                  and its children (serve-mixed: the server)
``success_frac``   ratio  higher  operations that passed every check over
                                  operations attempted (1 - failed share);
                                  operations are sweep points or requests
``requests_per_s`` 1/s    higher  scenario calls or requests per second:
                                  operations in a unit over ``wall_s``
``warm_p50_ms``    ms     lower   median latency of warm operations:
                                  store-served requests (the geometric
                                  mean over the scenarios of each one's
                                  median), or the timed scenario calls
                                  (all follow the warm-up)
``warm_p90_ms``    ms     lower   90th percentile of the same, pooled;
                                  below 100 samples, the highest
                                  percentile that leaves ten samples
                                  beyond it (at least the median), so
                                  node-sweep reports near its median
``cold_p50_ms``    ms     lower   median latency of cold operations:
                                  requests that miss the store (the
                                  geometric mean over the cold scenarios
                                  of each one's median), or every timed
                                  scenario call (node-sweep serves
                                  nothing from a cache)
=================  =====  ======  =========================================

``success_frac`` stands in for a failed fraction, which reads 0 on
correct code; the JSON's ``attempted`` and ``failed`` carry the counts.

Per-layer metrics (``--trace 1``)
---------------------------------
The traced run wraps each layer's public entry points (see
``tracer.py``) and reports one setup plus one timed unit: setup-phase
totals plus timed totals divided by the unit count.  Times are *self*
times: a span's duration minus its child spans.  ``trace.coverage`` is
the share of the traced wall time that layer self times account for
(at least 0.9), and ``trace.wall_s`` the traced unit time in plain
seconds, whose difference from the unscaled unit time of an untraced
run is the tracing overhead.  The traced
runs use their untraced configuration, with the service in-process
behind its HTTP server.

``*.firings_per_s`` counts *Petri firings* per second of kernel self
time, not sensing events.

======================================  ===================================
metric (unit)                           should move
======================================  ===================================
``scenarios.load_s`` (s)                 setup_s (node-sweep);
                                         warm_p50_ms (serve-mixed)
``runtime.config.resolve_s`` (s)         setup_s (all)
``topology.build_s``,                    cold_p50_ms, events_per_s
``topology.churn_schedule_s`` (s),       (serve-mixed)
``topology.segments`` (count)
``models.net_build_s`` (s),              cold_p50_ms (serve-mixed, one build
``models.net_builds`` (count)            per churn segment); ~0 in node-sweep
``models.task_s``,                       cold_p50_ms, warm_p50_ms
``models.network_s`` (s)                 (serve-mixed)
``core.simulator.init_s``,               cold_p50_ms, events_per_s
``core.simulator.run_s`` (s),            (serve-mixed); 0 in node-sweep
``core.simulator.firings``,
``core.simulator.stale_pops`` (count),
``core.simulator.firings_per_s`` (1/s)
``core.fast.compile_s``,                 wall_s, events_per_s (node-sweep);
``core.fast.ensemble_s`` (s),            0 in serve-mixed
``core.fast.compiles``,
``core.fast.firings`` (count),
``core.fast.firings_per_s`` (1/s)
``energy.accounting_s`` (s)              wall_s (node-sweep)
``runtime.dispatch_s`` (s),              cold_p50_ms (serve-mixed)
``runtime.tasks``, ``runtime.chunks``
(count), ``runtime.task_bytes``,
``runtime.result_bytes`` (bytes)
``runtime.store.key_s``,                 warm_p50_ms, warm_p90_ms,
``runtime.store.get_s`` (s),             requests_per_s (serve-mixed)
``runtime.store.keys``,
``runtime.store.gets`` (count),
``runtime.store.hit_ratio`` (ratio),
``runtime.store.bytes_read`` (bytes)
``runtime.store.put_s`` (s),             cold_p50_ms (serve-mixed)
``runtime.store.puts`` (count),
``runtime.store.bytes_written`` (bytes)
``runtime.sharding.merge_s`` (s)         cold_p50_ms (serve-mixed)
``serving.http_s`` (s),                  warm_p50_ms, requests_per_s
``serving.queue_ms``,                    (serve-mixed)
``serving.exec_ms``,
``serving.overhead_ms`` (ms)
``cli.render_s`` (s)                     warm_p50_ms (serve-mixed)
``scenarios.run_s`` (s)                  wall_s (all); not a layer
======================================  ===================================

Boundaries beyond the obvious ones: ``topology.build_s`` also times the
topologies' ``effective_rates``/``tree_parents``/``rewire``/``describe``,
because generated layouts and routing trees are built lazily on the
first such query.  ``models.task_s`` is the self time of the per-node
task functions (node-model set-up, workload generators, result
accounting around the kernel) and ``models.network_s`` that of
``SensorNetworkModel.simulate`` (per-node task building and result
folding in the parent).  ``scenarios.run_s`` is the self time of
``run_scenario``: the CLI run functions and experiment functions between
the layer boundaries; it counts as uncovered in ``trace.coverage``.
``serving.http_s`` is the serving layer's own self time (HTTP handling,
submission, job bookkeeping); ``serving.queue_ms`` is job start minus
submit, ``serving.exec_ms`` the job's ``elapsed_ms`` and
``serving.overhead_ms`` client latency minus ``exec_ms`` (medians).

Correctness
-----------
Checked after timing, on every unit.  node-sweep: the sha256 of each
printed report must equal the digest recorded in ``digests.json``
(``--update-digests`` re-records it after a deliberate output change).  serve-mixed: every response
must be ``done`` with exit code 0 and output equal to an in-process
``scenario run`` of the same spec, and every warm request must report
zero store misses.  Each mismatch is printed by name and counted in
``failed``.

The benchmark exits with an error, printing no result, when the
checkout has no ``src/repro`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    sha = "unknown"  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("node-sweep", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result as a JSON line")
    parser.add_argument(
        "--update-digests",
        action="store_true",
        help="re-record digests.json from one node-sweep run",
    )
    parser.add_argument(
        "--update-cold-seeds",
        action="store_true",
        help="re-screen cold_seeds.json, the serve-mixed cold request seeds",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.update_digests:
        digests = workloads.record_digests()
        workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {workloads.DIGESTS}")
        return 0
    if args.update_cold_seeds:
        pools = workloads.screen_cold_seeds()
        workloads.COLD_SEEDS.write_text(json.dumps(pools, indent=2, sort_keys=True) + "\n")
        print(f"wrote {workloads.COLD_SEEDS}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace)
    )
    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, value in outcome.raw.items():
        print(f"{'unscaled ' + name:32s} {value:14.6g} s")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            record = {"provenance": prov, "result": result, "unscaled": outcome.raw}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
