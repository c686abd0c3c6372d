#!/usr/bin/env bash
# The benchmark's one entry command. Run from the repository root.
#
#   bash benchmarks/run.sh --workload W --seed S --seconds N --trace 0|1
#       One run of one workload: builds arcs-perf (offline, release), runs
#       it, prints one line per metric (`workload metric value unit n q1
#       q3`) and, last, one JSON object with the verdict and the metrics.
#
#   bash benchmarks/run.sh [--traced] [--seed S] [--seconds N]
#       Every workload, each in its own process (so peak RSS and cache
#       state are per workload); with --traced, a second pass with spans.
#       Collects benchmarks/out/result.json.
#
# Exit status is non-zero when the build fails or any correctness check
# misses.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
out="$here/out"
workloads=(sweep-regular sweep-irregular sweep-warm serve-inproc serve-durable serve-wire)

workload="" seed=42 seconds=10 trace="" traced_pass=0 extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) traced_pass=1; shift ;;
        --write-expected) extra+=(--write-expected); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The build: offline, every dependency a path crate of this repository. A
# relative CARGO_TARGET_DIR is taken from the invoking directory, like
# cargo itself does.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/arcs-perf"

mkdir -p "$out"
# One malloc arena. glibc gives every short-lived worker thread (the sweep
# engine spawns one per `run`) whichever arena is free, and each arena keeps
# what it grew to: the same work peaked anywhere from 41 to 89 MB. With one
# arena peak_rss_mb measures the program, not the arena it landed in.
export MALLOC_ARENA_MAX=1
# Provenance, read here so no result is ever without it.
git_rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || true)"
[ -n "$git_rev" ] || git_rev="not-a-git-checkout"
if [ -n "$(git -C "$here" status --porcelain 2>/dev/null || true)" ]; then
    git_rev="$git_rev-dirty"
fi
rustc_version="$(rustc --version 2>/dev/null || echo unknown)"

run_one() { # workload trace
    "$bin" run --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
        --out "$out" --expected "$here/expected" \
        --git-rev "$git_rev" --rustc "$rustc_version" ${extra[@]+"${extra[@]}"}
}

if [ -n "$workload" ]; then
    run_one "$workload" "${trace:-0}"
    exit
fi

status=0
passes=(0)
[ "$traced_pass" = 1 ] && passes+=(1)
for t in "${passes[@]}"; do
    for w in "${workloads[@]}"; do
        run_one "$w" "$t" || status=1
    done
done
# One file for the whole set: a JSON array of the per-run results.
{
    echo '['
    first=1
    for t in "${passes[@]}"; do
        for w in "${workloads[@]}"; do
            [ "$first" = 1 ] || echo ','
            first=0
            cat "$out/result-$w-trace$t.json"
        done
    done
    echo ']'
} > "$out/result.json"
echo "run.sh: wrote $out/result.json" >&2
exit "$status"
