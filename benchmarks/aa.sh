#!/usr/bin/env bash
# A/A check: the same commit measured as independent sets must agree with
# itself within the benchmark's own bounds. Run from the repository root.
#
#   bash benchmarks/aa.sh [--sets 2] [--runs 10] [--seconds 10] [--seed 42]
#
# Each set runs every workload untraced `--runs` times, each run with
# another seed (seed, seed+1, ...), as the driver does. Per workload and
# end-to-end metric it prints the spread of each set — the distance between
# the first and third quartile of the runs' values as a share of their
# median — and the shift of each later set's median against the first set,
# in the direction that counts as worse. It fails when
#   - a spread (other than setup_s's) exceeds the metric's bound,
#   - a later median is worse than the first by more than the bound,
#   - a run's correctness check missed, or
#   - the simulated outputs (the digest) of the same workload and seed
#     differ between sets.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
sets=2 runs=10 seconds=10 seed=42
while [ $# -gt 0 ]; do
    case "$1" in
        --sets) sets="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

dir="$here/out/aa"
rm -rf "$dir"
mkdir -p "$dir"
workloads=(sweep-regular sweep-irregular sweep-warm serve-inproc serve-durable serve-wire)
for set in $(seq 1 "$sets"); do
    for w in "${workloads[@]}"; do
        for i in $(seq 0 $((runs - 1))); do
            s=$((seed + i))
            echo "aa.sh: set $set $w seed $s" >&2
            bash "$here/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
                > "$dir/log-$set-$w-$s.txt" || echo "aa.sh: run failed (set $set $w seed $s)" >&2
            cp "$here/out/result-$w-trace0.json" "$dir/result-$set-$w-$s.json"
        done
    done
done

python3 - "$dir" "$here/../BENCHMARK.json" "$sets" <<'EOF'
import glob, json, statistics, sys

out_dir, manifest_path, sets = sys.argv[1], sys.argv[2], int(sys.argv[3])
manifest = json.load(open(manifest_path))
bad = 0
# results[set][workload][seed] = result
results = {}
for path in sorted(glob.glob(f"{out_dir}/result-*.json")):
    r = json.load(open(path))
    s = int(path.rsplit("/", 1)[1].split("-")[1])
    results.setdefault(s, {}).setdefault(r["workload"], {})[r["seed"]] = r
    if not r["correct"]:
        print(f"FAIL  set {s} {r['workload']} seed {r['seed']}: {r['failures'][:3]}")
        bad += 1

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"{'workload':16} {'metric':12} {'bound':>6}  " +
      "  ".join(f"{'median'+str(s):>12} {'spread'+str(s):>8}" for s in range(1, sets + 1)) +
      "   worse-by")
for w in [x["name"] for x in manifest["workloads"]]:
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cols, medians = [], []
        for s in range(1, sets + 1):
            values = [r["metrics"][name]["value"] for r in results[s][w].values()]
            med, spr = statistics.median(values), spread(values)
            medians.append(med)
            flag = ""
            if name != "setup_s" and spr > bound:
                flag, bad = "!", bad + 1
            cols.append(f"{med:12.5g} {spr:7.4f}{flag or ' '}")
        shifts = []
        for med in medians[1:]:
            worse = (medians[0] - med if m["better"] == "higher" else med - medians[0]) / medians[0]
            flag = ""
            if worse > bound:
                flag, bad = "!", bad + 1
            shifts.append(f"{worse:+.4f}{flag}")
        print(f"{w:16} {name:12} {bound:6.2f}  " + "  ".join(cols) + "   " + " ".join(shifts))
    for seed, first in results[1][w].items():
        for s in range(2, sets + 1):
            other = results[s][w].get(seed)
            if other is None:
                continue
            if first["digest"] != other["digest"]:
                print(f"FAIL  {w} seed {seed}: simulated outputs differ between set 1 and set {s}")
                bad += 1
print("aa.sh: " + ("PASS" if bad == 0 else f"FAIL ({bad} finding(s); '!' marks a bound exceeded)"))
sys.exit(1 if bad else 0)
EOF
