#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# The root's default members are the suite package and every crate, so
# this builds the four CLIs and is tier-1 verbatim; `--workspace` below
# adds only the vendored stand-ins' own tests.
cargo build --release
cargo test --workspace -q
# The exactness oracle, the reference driver and the JSON stand-in again,
# optimised: the integrator's lane loops, the executor's borrowed-report
# and meter paths and the string scanner (whose linear-time test times
# it) are optimised only in release, which is the build that ships.
cargo test --release -q -p arcs-powersim --test reference_oracle
# The broker's and the warm sweep's allocation budgets, counted in the
# build that ships.
cargo test --release -q --test serve_allocations
cargo test --release -q --test warm_allocations
cargo test --release -q --test reference_driver
cargo test --release -q -p serde_json
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The CLIs under test, called as built. Nothing here boots a server: the
# cells that need a live `arcs-serve` are crates/serve/tests/cli.rs.
bin="${CARGO_TARGET_DIR:-target}/release"
sim() { "$bin/arcs-sim" "$@"; }
loadgen() { "$bin/arcs-serve-loadgen" "$@"; }
top() { "$bin/arcs-serve-top" "$@"; }

# One experiment driver: `arcs-sim` is the only binary of arcs-bench, it
# has no bench targets, and vendor/ holds exactly the stand-ins DESIGN.md
# §5 lists (the microbench harness that used to sit there stays deleted).
test "$(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml)" = 1
test "$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)" = 0
test "$(ls vendor | xargs)" = "parking_lot proptest serde serde_derive serde_json"

# Code size, printed and not gated: non-blank, non-`//` lines above the
# first column-0 `#[cfg(test)]` of every crates/*/src/**/*.rs — the count
# the shrink PRs quote — and the five largest files.
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    END {
        printf "ci: %d non-test code lines in crates/*/src; largest:\n", total
        for (file in lines) printf "ci:   %5d %s\n", lines[file], file | "sort -k2,2nr | head -5"
    }'

# Stray names. `forbid MESSAGE CONDITION [FIND_ARGS...]` fails with
# MESSAGE and every offending line when a line of a `.rs` file matches the
# awk CONDITION. The files are those `find FIND_ARGS -name '*.rs'` lists,
# by default every source under crates, src and examples outside a tests
# directory. Test modules sit at the end of a file by convention here, so
# everything from `#[cfg(test)]` on is skipped.
forbid() {
    local message="$1" condition="$2" strays
    shift 2
    [ $# -gt 0 ] || set -- crates src examples -not -path '*/tests/*'
    strays="$(find "$@" -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { nextfile }
        '"$condition"' { print FILENAME ":" FNR ": " $0 }' {} +)"
    if [ -n "$strays" ]; then
        echo "ci: $message:" >&2
        echo "$strays" >&2
        exit 1
    fi
}

# One interpreter: outside the trace crate (definition), the broker
# (emission) and the fold (meaning), no source may match a broker event.
# `JobRequeued` stands in for the family — whoever re-interprets the
# stream needs it.
forbid "broker events are interpreted outside BrokerFold" '/TraceEvent::JobRequeued/' \
    crates src examples -not -path 'crates/trace/*' -not -path '*/tests/*' \
    -not -path 'crates/serve/src/broker.rs' -not -path 'crates/metrics/src/broker_fold.rs'

# One run API: a workload runs through a `Runner` chain and a grid through
# `SweepEngine`, whose `run_cell` holds the recipes. No non-test source may
# bring back the second API (`runs::*`, the `SimExecutor` run helpers) or
# the ladder as a `Runner` switch behind a private APEX policy.
forbid "a second way to start a run" \
    '/runs::|fn run_default|fn run_fixed|fn run_tuned|fn train_offline|adaptive_schedule|"adaptive-schedule"/'

# One selector: every run flavour reaches the driver as one `RegionTuner`
# (a fixed run's regions pinned and untuned, the portfolio ladder
# per-region tuner state). No non-test source may bring back the driver's
# flavour enum, its adaptive state or the name-keyed ladder.
forbid "a second selector" '/enum Source|AdaptiveState|AdaptiveLadder|ArmSwitch/'

# One region key: the run's per-region state is indexed by the tuner's
# slot, which `drive` resolves once per step position. The non-test part
# of the run driver may keep no second region index beside it.
forbid "a second region index in the run driver" '/HashMap|summary_of/' \
    crates/core/src/backend.rs

# One search space and one way to label a series: the Table I grid and
# its optional frequency axis are `ConfigSpace` alone, and a labeled
# series is a registry name built by `labeled`. No non-test source may
# bring back the wrapper space, its module, the label families or the
# histogram timer guard.
forbid "a second search space or label API" '/TunableSpace|mod tunable|_family\(|start_timer/'

# One quantum path: the broker simulates a quantum only through its
# quantum memo (`quantum.rs`), which recalls a retraced quantum and builds
# a job's executor and tuner at its first miss. No other non-test source
# of the serve crate may build an executor or start a run.
forbid "a quantum simulated outside the quantum memo" '/Runner::new|SimExecutor::(new|on_cache)/' \
    crates/serve/src -not -path 'crates/serve/src/quantum.rs'

# One setting per search: ARCS runs the stock strategies with fixed
# coefficients and budgets (constants beside each strategy) and the
# self-healing ladder with a fixed outlier window and no median-of-k. No
# non-test source may bring back their option structs or knobs.
forbid "a search or self-healing knob only its default reaches" \
    '/NmOptions|ProOptions|with_repeats|measure_k|outlier_window/'

# One ADI timestep and one live region profile: BT and SP are schemes over
# `npb::adi` (`BtSolver`/`SpSolver` are type aliases), the live Fig. 9
# breakdown is `TraceTool` -> `arcs-sim report`, and the runtime has no
# collapse(2) entry point. No non-test source may bring back a solver
# struct per scheme, the second profile aggregator or `parallel_for_2d`.
forbid "a second ADI timestep, live region profile or collapse entry point" \
    '/OmptProfiler|parallel_for_2d|struct BtSolver|struct SpSolver/'

# EP is modelled, not run: `model::ep` is its descriptor, and the kernels
# crate keeps only its class sizes (`npb::ep::ep_log2_pairs`). No
# non-test source may bring back the live solver.
forbid "a live EP kernel" '/npb::ep::Ep|Ep::new/'

# One region profile and one cache-binding route: the simulated path
# keeps its per-region profile in the run report alone (no APEX hop, no
# APEX counters), a cache of another machine is a typed error only
# through `Runner::shared_cache`, and the runtime has no host-sized
# constructor. `PolicyFired` is read from v8 and older traces, and no
# non-test source outside the trace crate may name it, so nothing emits
# it; the APEX crate does not depend on the trace crate at all.
forbid "a second region profile, cache-binding route or PolicyFired emitter" \
    '/with_apex|record_counter|try_with_shared_cache|with_host_parallelism/ || (FILENAME !~ /^crates\/trace\// && /PolicyFired/)'
if grep -q 'arcs-trace' crates/apex/Cargo.toml; then
    echo "ci: arcs-apex depends on arcs-trace again" >&2
    exit 1
fi

# One request path in the broker service: each wire op is one closure the
# broker thread runs (`ask`, or `drain` for shutdown), a `stats` reply is
# `BrokerCounters` itself and the pool always has its metrics. No non-test
# source of the serve crate may bring back a command enum and its
# dispatcher, the wire mirror of the counters or the optional-metrics pool.
forbid "a second request path, stats mirror or optional pool metrics" \
    '/StatsBody|enum Command|fn dispatch|ThreadPool::with_metrics/' crates/serve/src

# One reporting channel in the tuning stack: a run reports through its
# trace alone, and the registry holds only the power-budget service's
# series. No non-test source of the runtime, the simulator, the search or
# the run driver may resolve a registry handle or bring back an attach
# point (the `Backend` trait's no-op `fn attach_metrics` has no leading
# dot), and the runtime, the simulator and the search do not depend on
# the metrics crate at all.
forbid "a registry handle in the tuning stack" \
    '/with_metrics|set_metrics|with_eval_counter|\.attach_metrics|\.counter\(|\.gauge\(|\.histogram\(/' \
    crates/core/src crates/omprt/src crates/powersim/src crates/harmony/src -not -path '*/tests/*'
if grep -l 'arcs-metrics' crates/{omprt,powersim,harmony}/Cargo.toml >&2; then
    echo "ci: the manifests above depend on arcs-metrics again" >&2
    exit 1
fi

# One spec parser, asked once per spec, and search state off the heap:
# admission asks the quantum memo whether a workload resolves (the memo
# parses each spec the first time), so the arbitration rules never build a
# workload model; and the simplex methods hold relaxed coordinates inline
# (`Coords`), so no search step allocates.
forbid "admission parses a workload spec itself" '/by_spec/' crates/serve/src/arbitration.rs
forbid "simplex coordinates on the heap" '/Vec<f64>/' \
    crates/harmony/src/strategies/{nelder_mead,pro,simplex}.rs

# Doc drift. Every backticked repository path in the three prose documents
# names a file or directory that exists: a `<placeholder>` or `*` matches
# anything, `{a,b}` expands, and a `::item` or `:line` suffix is dropped.
# Every `DESIGN.md §N` cited from code, README.md or this script (a wrapped
# citation included) names a heading of DESIGN.md. DESIGN.md stays a
# reference of at most 50 000 bytes: a fact has one home, and a module's
# own `//!` header is the home of what only that module does.
drift=""
while IFS= read -r span; do
    path="${span%%[ :]*}"
    path="${path//<*>/*}"
    mapfile -t globs < <(set -f; eval "printf '%s\n' $path")
    for glob in "${globs[@]}"; do
        compgen -G "$glob" > /dev/null || drift+="no such path: $span"$'\n'
    done
done < <(grep -ho '`\(crates\|tests\|benchmarks\|vendor\|examples\|results\)/[^`]*`' \
    DESIGN.md README.md EXPERIMENTS.md | tr -d '`' | sort -u)
for file in $(find crates src tests examples benchmarks/src -name '*.rs') README.md ci.sh; do
    for section in $(awk '{ sub(/^[[:space:]]*(\/\/[!\/]?|#)[[:space:]]*/, ""); printf "%s ", $0 }' "$file" \
        | grep -o 'DESIGN\.md`\? §[0-9][0-9a-z.]*' | sed 's/.*§//; s/\.$//' | sort -u); do
        grep -Eq "^#+ ${section//./\\.}\.? " DESIGN.md \
            || drift+="$file cites DESIGN.md §$section, which has no heading"$'\n'
    done
done
design_bytes="$(wc -c < DESIGN.md)"
[ "$design_bytes" -le 50000 ] || drift+="DESIGN.md is $design_bytes bytes, above 50000"$'\n'
if [ -n "$drift" ]; then
    echo "ci: the documents drifted from the tree:" >&2
    printf '%s' "$drift" >&2
    exit 1
fi

# Trace smoke: a tuned run must emit JSONL that validates against the
# published schema (--check exits non-zero otherwise) plus a Chrome trace.
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
sim run --workload sp.B --cap 80 --timesteps 6 \
    --trace "$trace_tmp/sp.trace.jsonl" --chrome "$trace_tmp/sp.trace.chrome.json" --check
test -s "$trace_tmp/sp.trace.jsonl"
test -s "$trace_tmp/sp.trace.chrome.json"

# Perf-regression gate smoke: the simulator is deterministic, so the same
# fixed-seed cell run twice must produce identical analysis reports and
# pass `compare` at a 0% threshold. Any nondeterminism, trace drift, or
# analysis regression fails here.
sim run --workload sp.B --cap 80 --timesteps 6 \
    --trace "$trace_tmp/sp.trace2.jsonl"
sim report "$trace_tmp/sp.trace.jsonl" --format json --out "$trace_tmp/base.json"
sim report "$trace_tmp/sp.trace2.jsonl" --format json --out "$trace_tmp/cand.json"
sim compare "$trace_tmp/base.json" "$trace_tmp/cand.json" \
    --fail-on 0 --out "$trace_tmp/bench_smoke.json"
test -s "$trace_tmp/bench_smoke.json"
# The gate must also *fire*: the same cell throttled to 60 W is clearly
# slower, so comparing it against the 80 W baseline has to exit nonzero.
sim run --workload sp.B --cap 60 --timesteps 6 \
    --trace "$trace_tmp/sp.slow.jsonl"
sim report "$trace_tmp/sp.slow.jsonl" --format json --out "$trace_tmp/slow.json"
if sim compare "$trace_tmp/base.json" "$trace_tmp/slow.json" --fail-on 5 \
    > /dev/null 2>&1; then
    echo "compare gate failed to flag a regression" >&2
    exit 1
fi

# Energy-objective gate smoke: the same fixed-seed cell scored by energy,
# run twice, must produce identical reports and pass `compare --objective
# energy` at a 0% threshold.
sim run --workload sp.B --cap 80 --timesteps 6 \
    --objective energy --trace "$trace_tmp/sp.energy.jsonl"
sim run --workload sp.B --cap 80 --timesteps 6 \
    --objective energy --trace "$trace_tmp/sp.energy2.jsonl"
sim report "$trace_tmp/sp.energy.jsonl" --format json --out "$trace_tmp/ebase.json"
sim report "$trace_tmp/sp.energy2.jsonl" --format json --out "$trace_tmp/ecand.json"
sim compare "$trace_tmp/ebase.json" "$trace_tmp/ecand.json" \
    --objective energy --fail-on 0 --out "$trace_tmp/bench_energy_smoke.json"
test -s "$trace_tmp/bench_energy_smoke.json"
# The objective gate must also *fire*. Cap-throttling leaves package
# energy nearly flat in this power model (power ≈ cap, time ∝ 1/cap), so
# the throttled cell regresses on energy-delay product, not raw energy:
# same joules drawn over a visibly longer run. Re-scoring the 60 W cell
# against the 80 W baseline by EDP has to exit nonzero.
sim run --workload sp.B --cap 60 --timesteps 6 \
    --objective energy --trace "$trace_tmp/sp.energy.slow.jsonl"
sim report "$trace_tmp/sp.energy.slow.jsonl" --format json --out "$trace_tmp/eslow.json"
if sim compare "$trace_tmp/ebase.json" "$trace_tmp/eslow.json" \
    --objective edp --fail-on 5 > /dev/null 2>&1; then
    echo "objective compare gate failed to flag an EDP regression" >&2
    exit 1
fi

# Paper artefacts: `results/<id>.txt` is generated output. Regenerate all
# 19 from the registry and byte-compare each against the checked-in file.
sim fig --all --out "$trace_tmp/fig"
test "$(ls "$trace_tmp/fig" | wc -l)" = 19
for fig in "$trace_tmp"/fig/*.txt; do
    cmp "$fig" "results/$(basename "$fig")"
done

# Benchmark digest cells: one short run each of the weighted-region sweep
# (lulesh/cg/mc — the only gate that prices non-uniform regions; fig. 4
# has sp/bt alone), the regular one, the warm one (every invocation a
# memo hit, most of them served from the executor's last-cell memory —
# it also fails on any miss), and the two in-process broker workloads
# (5000 jobs of pure arbitration; 2500 under node-flap chaos with trace,
# journal and a byte-compared recovery). `run.sh` exits non-zero unless
# the simulated outputs hash to the pinned benchmarks/expected/*.digest,
# so any drift in the integrator, the driver or what the broker decides
# fails here; throughput is reported, not gated (a 3 s run on a shared
# host is narrower than its own noise). The memo's sharing is gated too:
# cells are keyed by operating point, so caps that clamp a team to one
# frequency simulate once, and by canonical schedule
# (`Schedule::canonical`), so schedules that dispatch one chunk stream
# simulate once; every repetition misses exactly this many
# cells at any --seconds — fewer or more means the keying moved even
# while the digests still pass. The hits are pinned beside them, so a
# lookup counted twice or not at all — by the memo or by an executor's
# last-cell memory — fails here too. The broker's quantum memo recalls a
# retraced quantum without pricing it, so the serve workloads' hits count
# only the quanta simulated; their unchanged misses show every cell is
# still priced exactly once.
for workload in sweep-irregular sweep-regular sweep-warm serve-inproc serve-durable; do
    bash benchmarks/run.sh --workload "$workload" --seed 42 --seconds 3 --trace 0 \
        | tee "$trace_tmp/bench.txt"
    case "$workload" in
        sweep-irregular) misses=3259 hits=161561 ;;
        sweep-regular) misses=14700 hits=915300 ;;
        sweep-warm) misses=0 hits=1094700 ;;
        serve-inproc) misses=3260 hits=937245 ;;
        serve-durable) misses=5281 hits=717815 ;;
    esac
    for pin in "misses $misses" "hits $hits"; do
        read -r counter n <<< "$pin"
        if ! grep -Eq "^$workload powersim\.memo\.$counter $n count [0-9]+ $n $n\$" \
            "$trace_tmp/bench.txt"; then
            echo "ci: $workload does not count exactly $n memo $counter per repetition" >&2
            exit 1
        fi
    done
done
(cd benchmarks && cargo test --offline)

# Chaos smoke: the paper-facing fault scenario (ARCS-Online LULESH at
# 60 W under flaky-rapl) must self-heal and complete, and the fault
# schedule is part of the determinism contract — the injected count is
# pinned.
sim run --workload lulesh --cap 60 --plan flaky-rapl --seed 7 \
    --timesteps 40 | tee "$trace_tmp/chaos.txt"
grep -q "injected 216 fault(s)" "$trace_tmp/chaos.txt"
# The negative contract must also *fire*: without an error budget a
# hard RAPL outage is a typed run error, so the command exits nonzero.
if sim run --workload sp.B --cap 70 --plan rapl-outage --seed 3 \
    --timesteps 20 --budget none > /dev/null 2>&1; then
    echo "unbudgeted rapl-outage failed to surface as an error" >&2
    exit 1
fi
# Determinism: two same-seed chaos runs must write byte-identical traces.
sim run --workload lulesh --cap 60 --plan flaky-rapl --seed 7 \
    --timesteps 40 --trace "$trace_tmp/chaos_a.jsonl" > /dev/null
sim run --workload lulesh --cap 60 --plan flaky-rapl --seed 7 \
    --timesteps 40 --trace "$trace_tmp/chaos_b.jsonl" > /dev/null
cmp "$trace_tmp/chaos_a.jsonl" "$trace_tmp/chaos_b.jsonl"

# Replay dashboard golden: reconstructing the dashboard from the pinned
# v5 broker fixture is a pure function of the file — run it twice and
# both outputs must match the checked-in golden byte-for-byte.
for i in 1 2; do
    top --replay tests/fixtures/trace_v5_broker.jsonl --once --format json \
        --check-budget > "$trace_tmp/top_replay_$i.json"
    cmp "$trace_tmp/top_replay_$i.json" tests/fixtures/serve_top_v5.golden.json
done

# Admission control must *fire*: the in-process loadgen plants jobs whose
# floor cap tops the whole budget and fails unless they were rejected —
# and unless zero admitted jobs were lost, the budget held at every
# reallocation, and the tenant fairness ratio stayed in bounds.
loadgen --jobs 200 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --out "$trace_tmp/loadgen_a.jsonl" | tee "$trace_tmp/loadgen.txt"
grep -q "loadgen: PASS" "$trace_tmp/loadgen.txt"
# Determinism: the same seed must write a byte-identical broker trace.
loadgen --jobs 200 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --out "$trace_tmp/loadgen_b.jsonl" > /dev/null
cmp "$trace_tmp/loadgen_a.jsonl" "$trace_tmp/loadgen_b.jsonl"

# Broker chaos: 1000 jobs under the node-flap preset with a bounded
# admission queue. The loadgen exits nonzero unless every submitted job
# reached a terminal state (zero lost), at least one node failed AND one
# victim was requeued (the chaos must actually bite), shedding fired,
# and Σ allocations never topped the budget — and the same seed must
# still write a byte-identical trace with the fault schedule on.
loadgen --jobs 1000 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --node-faults node-flap:7 --shed-target 64 \
    --out "$trace_tmp/chaos_a.jsonl" | tee "$trace_tmp/chaos.txt"
grep -q "loadgen: PASS" "$trace_tmp/chaos.txt"
loadgen --jobs 1000 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --node-faults node-flap:7 --shed-target 64 \
    --out "$trace_tmp/chaos_b.jsonl" > /dev/null
cmp "$trace_tmp/chaos_a.jsonl" "$trace_tmp/chaos_b.jsonl"
