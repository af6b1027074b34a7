#!/usr/bin/env bash
# CLI smoke groups shared by the CI jobs (and runnable locally).
#
# Usage: scripts/ci_smoke.sh [group...]
#
# Groups:
#   runtime   parallel runtime on a tiny grid (workers + replications)
#   adaptive  adaptive replication control (--ci-target)
#   network   multi-node network scenario: a grid run over two workers
#             diffed bit-identical (below the header) against one
#   socket    multi-host backend: 2 localhost workers, network sweep,
#             output asserted bit-identical to --backend local
#   engine    vectorized lockstep engine: Fig. 14 (serial and over two
#             workers), Fig. 15 (up to a 184-row ensemble whose seeds
#             repeat), Fig. 7, adaptive and one-replication validate
#             runs, a churning bursty network, a network sweep and an
#             adaptive network scenario diffed bit-identical against
#             the interpreted engine
#   store     content-addressed result store: cold run, warm run diffed
#             bit-identical, `store stats` asserted to report hits; a
#             geometric network cold/warm pair diffed and its warm run
#             asserted to be one hit and no miss, then its fold entry
#             deleted and a third run from the node entries diffed
#   scenario  declarative scenario files: validate + run every gallery
#             spec at its --smoke scale, `scenario run fig14.yaml` and
#             `churn_tree.yaml` diffed bit-identical against their
#             flag-spelled fig and network runs; a NaN or infinite
#             horizon asserted to fail fast with exit 2, the same
#             stderr line for a flag as for an override
#   serve     sweep-serving query service: ephemeral-port server,
#             `query` cold then warm, both diffed bit-identical
#             against `scenario run`, /stats asserted to report the
#             warm pass as pure hits
#   topology  scenario-diversity subsystem: both generated-topology
#             gallery scenarios at --smoke, a churning bursty run
#             diffed bit-identical between two-worker and serial
#             spellings, `topology describe` asserted stable
#   all       every group above (default)
#
# Each group exercises the CLI exactly as a user would — tiny horizons,
# full code paths.  The socket group is the acceptance gate for the
# execution-backend layer: it starts two `repro.cli worker` processes
# on ephemeral ports, runs the same `network --sweep` through
# `--backend socket` and `--backend local`, and diffs the output.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CLI="python -m repro.cli"

# Background workers started by the socket group.  Killed on any exit
# path — an EXIT trap also fires when `set -e` aborts mid-function
# (a RETURN trap would not).
WORKER_PIDS=()
cleanup_workers() {
    if [ "${#WORKER_PIDS[@]}" -gt 0 ]; then
        kill "${WORKER_PIDS[@]}" 2>/dev/null || true
        WORKER_PIDS=()
    fi
}
trap cleanup_workers EXIT

smoke_runtime() {
    echo "--- smoke: parallel runtime (tiny grid) ---"
    $CLI node-sweep --horizon 2 --workers 2 --replications 2
    $CLI validate
}

smoke_adaptive() {
    echo "--- smoke: adaptive replication control ---"
    $CLI node-sweep --horizon 2 --workers 2 --ci-target 0.5 --max-replications 4
    $CLI network --topology line --nodes 3 --horizon 5 --sweep \
        --ci-target 0.5 --max-replications 2
    # One adaptive scenario: its energy and lifetime intervals.
    $CLI network --topology line --nodes 3 --horizon 5 \
        --ci-target 0.5 --max-replications 2
}

smoke_network() {
    echo "--- smoke: multi-node network scenario (workers 2 vs 1) ---"
    # The first output line records the worker count, which is exactly
    # what differs — drop it, diff the numbers.
    local args=(network --topology grid --grid 5x4 --horizon 5 --base-rate 0.05)
    local out_serial out_parallel
    out_serial="$(mktemp)"
    out_parallel="$(mktemp)"
    $CLI "${args[@]}" --workers 1 | tail -n +2 >"$out_serial"
    $CLI "${args[@]}" --workers 2 | tail -n +2 >"$out_parallel"
    if diff "$out_serial" "$out_parallel"; then
        echo "network output is bit-identical over 2 workers and 1"
    else
        echo "FAIL: network output differs over 2 workers and 1" >&2
        return 1
    fi
    cat "$out_parallel"
}

# Start one worker on an ephemeral port, logging to $1.  Runs in the
# *parent* shell (no command substitution) so WORKER_PIDS really
# accumulates the pids the cleanup trap must kill.
start_worker() {
    $CLI worker --serve 0 --max-sessions 64 >"$1" 2>&1 &
    WORKER_PIDS+=("$!")
}

# Poll a worker log for the announced port; prints it.
worker_port() {
    local port=""
    for _ in $(seq 1 120); do
        port="$(sed -n 's/.*listening on [^:]*:\([0-9]*\)$/\1/p' "$1")"
        [ -n "$port" ] && break
        sleep 0.5
    done
    if [ -z "$port" ]; then
        echo "worker failed to start; log:" >&2
        cat "$1" >&2
        return 1
    fi
    echo "$port"
}

smoke_socket() {
    echo "--- smoke: socket backend (2 localhost workers) ---"
    local log_a log_b port_a port_b
    log_a="$(mktemp)"
    log_b="$(mktemp)"
    start_worker "$log_a"
    start_worker "$log_b"
    port_a="$(worker_port "$log_a")"
    port_b="$(worker_port "$log_b")"
    echo "workers on ports $port_a, $port_b"

    local args=(network --topology line --nodes 4 --horizon 5 --sweep)
    local out_local out_socket
    out_local="$(mktemp)"
    out_socket="$(mktemp)"
    $CLI "${args[@]}" --backend local >"$out_local"
    $CLI "${args[@]}" --backend socket \
        --connect "127.0.0.1:$port_a" --connect "127.0.0.1:$port_b" \
        >"$out_socket"
    if diff "$out_local" "$out_socket"; then
        echo "socket backend output is bit-identical to local"
    else
        echo "FAIL: socket backend output differs from local" >&2
        return 1
    fi
    cleanup_workers
}

# Run one CLI invocation under both engines and diff the output.
engine_diff() {
    local out_interp out_vec
    out_interp="$(mktemp)"
    out_vec="$(mktemp)"
    $CLI "$@" --engine interpreted >"$out_interp"
    $CLI "$@" --engine vectorized >"$out_vec"
    if diff "$out_interp" "$out_vec"; then
        echo "$*: vectorized output is bit-identical to interpreted"
    else
        echo "FAIL: $*: vectorized output differs from interpreted" >&2
        return 1
    fi
}

smoke_engine() {
    echo "--- smoke: vectorized engine vs interpreted ---"
    # The engines promise bit-identity, so a textual diff of a figure
    # regeneration is the acceptance gate — not "close enough".
    engine_diff fig 14 --horizon 2 --replications 2
    # Two workers: the sweep points are packed into two ensemble tasks
    # that run on the process pool.
    engine_diff fig 14 --horizon 2 --replications 3 --workers 2
    # One 184-row ensemble whose rows retire over many steps, so retired
    # rows are swapped out of the active prefix again and again.
    engine_diff fig 14 --horizon 5 --replications 8
    # The open workload: each row's arrival rate is per-row timing on
    # the emit transition.
    engine_diff fig 15 --horizon 2 --replications 2
    # ... as a 184-row ensemble: every row draws on each arrival, and
    # each replication's seed repeats at every threshold.
    engine_diff fig 15 --horizon 5 --replications 8
    # The CPU model's Petri-net estimator, ensembled across thresholds.
    engine_diff fig 7 --horizon 20 --replications 2
    # Adaptive control must agree too (converged flags ride the output).
    engine_diff validate --ci-target 0.5 --max-replications 4
    # Adaptive CPU comparison: the second round's batch starts at
    # replication 2, so only the tasks say where the Markov solve runs.
    engine_diff table 4 --horizon 20 --replications 2 --ci-target 0.05 \
        --max-replications 4
    # Network nodes join the ensemble: a churning, bursty cluster tree
    # (every alive segment a row of one ensemble, quiet-state trickle
    # on) ...
    engine_diff network --topology cluster-tree --fanout 3 --depth 2 \
        --failure-rate 0.05 --duty-spread 0.3 --traffic bursty \
        --burst-off-fraction 0.2 --horizon 5 --base-rate 0.2 --seed 3
    # ... a run long enough that nodes die, so its rows have segments
    # of many lengths, each retiring at its own horizon ...
    engine_diff network --topology cluster-tree --fanout 3 --depth 3 \
        --failure-rate 0.02 --duty-spread 0.3 --traffic bursty \
        --horizon 30 --seed 3
    # ... and every point of a grid threshold sweep.
    engine_diff network --topology grid --grid 3x3 --horizon 5 --sweep
    # Adaptive network replications: each round packs the nodes of
    # every open threshold point into one ensemble, serially and on a
    # two-worker pool.
    engine_diff network --topology line --nodes 3 --horizon 5 --sweep \
        --ci-target 0.5 --max-replications 2
    engine_diff network --topology line --nodes 3 --horizon 5 --sweep \
        --ci-target 0.5 --max-replications 2 --workers 2
    # One adaptive scenario, replicated without a sweep.
    engine_diff network --topology line --nodes 3 --horizon 5 \
        --ci-target 0.5 --max-replications 2
    # One replication is below the lockstep floor and runs interpreted.
    engine_diff validate --replications 1
}

# One counter of `store stats`, e.g. `store_stat "$store_dir" hits`.
store_stat() {
    $CLI store stats --store "$1" | sed -n "s/^$2 *: *//p"
}

smoke_store() {
    echo "--- smoke: result store (cold vs warm runs) ---"
    local store_dir out_cold out_warm
    store_dir="$(mktemp -d)"
    out_cold="$(mktemp)"
    out_warm="$(mktemp)"
    local args=(node-sweep --horizon 2 --replications 2 --store "$store_dir")
    $CLI "${args[@]}" >"$out_cold"
    $CLI "${args[@]}" >"$out_warm"
    if diff "$out_cold" "$out_warm"; then
        echo "warm store run output is bit-identical to cold"
    else
        echo "FAIL: warm store run output differs from cold" >&2
        return 1
    fi
    # Cross-engine sharing: the vectorized engine must read the
    # interpreted run's entries and print the same bytes.
    $CLI node-sweep --horizon 2 --replications 2 --engine vectorized \
        --store "$store_dir" >"$out_warm"
    if diff "$out_cold" "$out_warm"; then
        echo "vectorized run served from interpreted entries, bit-identical"
    else
        echo "FAIL: vectorized warm run differs from interpreted cold" >&2
        return 1
    fi
    # A fresh `store stats` process must see the warm runs' hits
    # (counters are flushed to the manifest on CLI exit).
    $CLI store stats --store "$store_dir"
    local hits
    hits="$(store_stat "$store_dir" hits)"
    if [ "${hits:-0}" -gt 0 ]; then
        echo "store stats reports $hits hits across processes"
    else
        echo "FAIL: store stats reported no hits after warm runs" >&2
        return 1
    fi
    # A network replication's folded result is one entry: a warm
    # network run (one replication) must print the cold run's bytes
    # with exactly one hit and no miss.
    local net=(network --topology geometric --nodes 200 --horizon 2
        --store "$store_dir")
    $CLI "${net[@]}" >"$out_cold"
    local hits_cold misses_cold hits_warm misses_warm
    hits_cold="$(store_stat "$store_dir" hits)"
    misses_cold="$(store_stat "$store_dir" misses)"
    $CLI "${net[@]}" >"$out_warm"
    hits_warm="$(store_stat "$store_dir" hits)"
    misses_warm="$(store_stat "$store_dir" misses)"
    if ! diff "$out_cold" "$out_warm"; then
        echo "FAIL: warm network run output differs from cold" >&2
        return 1
    fi
    if [ "$((hits_warm - hits_cold))" != 1 ] || \
        [ "$misses_warm" != "$misses_cold" ]; then
        echo "FAIL: warm network run added $((hits_warm - hits_cold))" \
            "hits and $((misses_warm - misses_cold)) misses (want 1 and 0)" >&2
        return 1
    fi
    echo "warm network run is bit-identical to cold: 1 hit, 0 misses"
    # Without its fold entry the run falls back to the node entries:
    # the same bytes, and the fold entry is the one miss.
    local dropped
    dropped="$(python -c "import sys
from repro.runtime.store import ResultStore
from tests.models.test_network import drop_fold_entries
print(drop_fold_entries(ResultStore(sys.argv[1])))" "$store_dir")"
    if [ "$dropped" != 1 ]; then
        echo "FAIL: expected 1 fold entry in the store, found $dropped" >&2
        return 1
    fi
    $CLI "${net[@]}" >"$out_warm"
    if ! diff "$out_cold" "$out_warm"; then
        echo "FAIL: network run from node entries differs from cold" >&2
        return 1
    fi
    if [ "$(store_stat "$store_dir" misses)" != "$((misses_warm + 1))" ]; then
        echo "FAIL: network run from node entries missed more than" \
            "its fold entry" >&2
        return 1
    fi
    echo "node entries alone serve the network run bit-identically"
    # verify and gc keep a store of node and fold entries whole.
    $CLI store verify --store "$store_dir"
    $CLI store gc --store "$store_dir"
    rm -rf "$store_dir" "$out_cold" "$out_warm"
}

# Run one CLI invocation that must fail fast: exit 2 within 60 s,
# stderr written to $1.
expect_exit_2() {
    local err="$1" code=0
    shift
    timeout 60 $CLI "$@" >/dev/null 2>"$err" || code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL: $* exited $code, expected 2; stderr:" >&2
        cat "$err" >&2
        return 1
    fi
}

smoke_scenario() {
    echo "--- smoke: declarative scenario gallery ---"
    # Every shipped spec must validate and run at its own CI scale.
    local file
    for file in scenarios/*.yaml; do
        $CLI scenario validate "$file"
        $CLI scenario run "$file" --smoke
    done
    # The acceptance gate: a scenario run prints the same bytes as the
    # flag spelling it replaces (fig14.yaml's smoke shape is
    # `fig 14 --horizon 2.0 --replications 2`).
    local out_scenario out_flags
    out_scenario="$(mktemp)"
    out_flags="$(mktemp)"
    $CLI scenario run scenarios/fig14.yaml --smoke >"$out_scenario"
    $CLI fig 14 --horizon 2.0 --replications 2 >"$out_flags"
    if diff "$out_scenario" "$out_flags"; then
        echo "scenario run output is bit-identical to the flag spelling"
    else
        echo "FAIL: scenario run output differs from the flag spelling" >&2
        return 1
    fi
    # The same gate for a network spec carrying the schema-v2 keys
    # (churn_tree.yaml's smoke shape).
    $CLI scenario run scenarios/churn_tree.yaml --smoke >"$out_scenario"
    $CLI network --topology cluster-tree --fanout 3 --depth 3 \
        --failure-rate 0.02 --duty-spread 0.3 --traffic bursty \
        --base-rate 0.2 --horizon 5 --workers 1 >"$out_flags"
    if diff "$out_scenario" "$out_flags"; then
        echo "network scenario output is bit-identical to the flag spelling"
    else
        echo "FAIL: network scenario output differs from the flag spelling" >&2
        return 1
    fi
    # Schema errors must name the bad key and exit non-zero.
    if $CLI scenario run scenarios/fig14.yaml \
        --override params.bogus=1 >/dev/null 2>&1; then
        echo "FAIL: scenario accepted an unknown params key" >&2
        return 1
    fi
    echo "scenario correctly rejects an unknown params key"
    # Non-finite numbers fail fast (they once hung the run), and a flag
    # and an override of the same value fail with the same line.
    local err_flag err_override bad_spec
    err_flag="$(mktemp)"
    err_override="$(mktemp)"
    expect_exit_2 "$err_flag" fig 14 --horizon nan
    expect_exit_2 "$err_override" scenario run scenarios/fig14.yaml \
        --override params.horizon=NaN
    if diff "$err_flag" "$err_override"; then
        echo "flag and override reject a NaN horizon with one message"
    else
        echo "FAIL: flag and override reject a NaN horizon differently" >&2
        return 1
    fi
    # Execution settings share one check too: ExecutionConfig's.
    expect_exit_2 "$err_flag" validate --workers 0
    expect_exit_2 "$err_override" scenario run scenarios/validation.yaml \
        --override execution.workers=0
    if diff "$err_flag" "$err_override"; then
        echo "flag and override reject --workers 0 with one message"
    else
        echo "FAIL: flag and override reject --workers 0 differently" >&2
        return 1
    fi
    bad_spec="$(mktemp --suffix=.yaml)"
    printf 'name: inf\nmodel: node-sweep\nparams:\n  horizon: .inf\n' \
        >"$bad_spec"
    expect_exit_2 "$err_flag" scenario validate "$bad_spec"
    echo "scenario validate rejects an infinite horizon"
    rm -f "$err_flag" "$err_override" "$bad_spec"
}

smoke_topology() {
    echo "--- smoke: generated topologies, churn and bursty traffic ---"
    # Both generated-topology gallery scenarios at their CI scale.
    $CLI scenario validate scenarios/geo1000.yaml
    $CLI scenario run scenarios/geo1000.yaml --smoke
    $CLI scenario validate scenarios/churn_tree.yaml
    $CLI scenario run scenarios/churn_tree.yaml --smoke
    # The acceptance gate for the dynamics layer: a churning, bursty
    # geometric run must print the same bytes over two workers as
    # serial.  The first output line records the worker count, which
    # is exactly what differs — drop it, diff the numbers.
    local args=(network --topology geometric --nodes 12 --horizon 5
        --base-rate 0.2 --failure-rate 0.2 --duty-spread 0.3
        --traffic bursty --seed 3)
    local out_serial out_parallel
    out_serial="$(mktemp)"
    out_parallel="$(mktemp)"
    $CLI "${args[@]}" | tail -n +2 >"$out_serial"
    $CLI "${args[@]}" --workers 2 | tail -n +2 >"$out_parallel"
    if diff "$out_serial" "$out_parallel"; then
        echo "churn run output is bit-identical over 2 workers vs serial"
    else
        echo "FAIL: churn run output differs over 2 workers vs serial" >&2
        return 1
    fi
    if ! grep -q "failures" "$out_serial"; then
        echo "FAIL: churn run reported no churn summary" >&2
        return 1
    fi
    # `topology describe` is pure inspection: two runs, same bytes.
    local desc_a desc_b
    desc_a="$(mktemp)"
    desc_b="$(mktemp)"
    $CLI topology describe --topology geometric --nodes 200 \
        --seed 2010 >"$desc_a"
    $CLI topology describe --topology geometric --nodes 200 \
        --seed 2010 >"$desc_b"
    if diff "$desc_a" "$desc_b"; then
        echo "topology describe output is stable"
    else
        echo "FAIL: topology describe output is unstable" >&2
        return 1
    fi
    cat "$desc_a"
}

# Read one numeric field out of the server's /stats JSON, e.g.
# `serve_stat "$server" hits`.
serve_stat() {
    $CLI query --server "$1" --stats | python -c \
        "import json, sys; print(json.load(sys.stdin)['store']['$2'])"
}

smoke_serve() {
    echo "--- smoke: sweep-serving query service ---"
    local store_dir log port server server_pid out_ref out_cold out_warm
    store_dir="$(mktemp -d)"
    log="$(mktemp)"
    out_ref="$(mktemp)"
    out_cold="$(mktemp)"
    out_warm="$(mktemp)"
    # The ground truth the served answers must match byte-for-byte.
    $CLI scenario run scenarios/fig14.yaml --smoke >"$out_ref"
    # The server gets a fresh store: it computes the cold query
    # itself, so the warm pass genuinely proves store-only serving.
    $CLI serve --store "$store_dir" --progress-interval 0 >"$log" 2>&1 &
    server_pid="$!"
    WORKER_PIDS+=("$server_pid")
    port="$(worker_port "$log")"
    server="http://127.0.0.1:$port"
    echo "serve on port $port"

    $CLI query scenarios/fig14.yaml --smoke --server "$server" >"$out_cold"
    if diff "$out_ref" "$out_cold"; then
        echo "cold served output is bit-identical to scenario run"
    else
        echo "FAIL: cold served output differs from scenario run" >&2
        return 1
    fi
    local hits_cold misses_cold hits_warm misses_warm
    hits_cold="$(serve_stat "$server" hits)"
    misses_cold="$(serve_stat "$server" misses)"

    $CLI query scenarios/fig14.yaml --smoke --server "$server" >"$out_warm"
    if diff "$out_ref" "$out_warm"; then
        echo "warm served output is bit-identical to scenario run"
    else
        echo "FAIL: warm served output differs from scenario run" >&2
        return 1
    fi
    hits_warm="$(serve_stat "$server" hits)"
    misses_warm="$(serve_stat "$server" misses)"
    if [ "$hits_warm" -gt "$hits_cold" ] && \
        [ "$misses_warm" -eq "$misses_cold" ]; then
        echo "warm pass was pure hits ($hits_cold -> $hits_warm," \
            "misses flat at $misses_warm)"
    else
        echo "FAIL: warm pass was not store-only" \
            "(hits $hits_cold -> $hits_warm," \
            "misses $misses_cold -> $misses_warm)" >&2
        return 1
    fi
    # The server writes its store counters to the manifest once, when it
    # shuts down: stop it as Ctrl-C would, then read them back.
    kill -INT "$server_pid"
    if ! wait "$server_pid"; then
        echo "FAIL: serve did not exit cleanly on SIGINT; log:" >&2
        cat "$log" >&2
        return 1
    fi
    WORKER_PIDS=()
    local hits_stored
    hits_stored="$($CLI store stats --store "$store_dir" |
        sed -n 's/^hits *: //p')"
    if [ "$hits_stored" -ge "$hits_warm" ]; then
        echo "store counters persisted at shutdown" \
            "($hits_stored hits >= $hits_warm served)"
    else
        echo "FAIL: store stats reports $hits_stored hits," \
            "the server served $hits_warm" >&2
        return 1
    fi
    cleanup_workers
    rm -rf "$store_dir"
}

groups=("${@:-all}")
for group in "${groups[@]}"; do
    case "$group" in
        runtime)  smoke_runtime ;;
        adaptive) smoke_adaptive ;;
        network)  smoke_network ;;
        socket)   smoke_socket ;;
        engine)   smoke_engine ;;
        store)    smoke_store ;;
        scenario) smoke_scenario ;;
        serve)    smoke_serve ;;
        topology) smoke_topology ;;
        all)      smoke_runtime; smoke_adaptive; smoke_network; smoke_socket; smoke_engine; smoke_store; smoke_scenario; smoke_serve; smoke_topology ;;
        *)
            echo "unknown smoke group: $group" >&2
            echo "valid groups: runtime adaptive network socket engine store scenario serve topology all" >&2
            exit 2
            ;;
    esac
done
echo "ci_smoke: OK (${groups[*]})"
