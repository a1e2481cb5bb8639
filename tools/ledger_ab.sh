#!/usr/bin/env bash
# Interleaved A/B of the perf ledger between two source trees.
#
#   tools/ledger_ab.sh PARENT_TREE CHANGE_TREE PARENT_COMMIT CHANGE_COMMIT \
#     WORKLOAD SEED PAIRS
#
# Runs `bash bench/ledger/run.sh --workload WORKLOAD --seed SEED` in both
# trees PAIRS times, alternating which side goes first (the parent on
# even pairs, the change on odd ones). Each tree builds its own
# .bench_build/ledger. The commit ids are arguments because a
# `git archive` export has no .git to read them from.
#
# For each end-to-end metric in the change tree's BENCHMARK.json it prints
# both sides' median and q1-q3 (inclusive quartiles) and the pairs the
# change won (ties count for neither side), checks that both sides print
# the same digest in every pair, prints the host's CPU steal over the
# whole set (from the aggregate `cpu` line of /proc/stat, as a percentage
# of all jiffies; null where /proc/stat is unreadable), and then prints
# one entry to append to BENCH_ledger.json. Each run's stdout is kept in
# a directory named on stderr.
set -euo pipefail

if (($# != 7)); then
  sed -n '4,5p' "$0" | sed 's/^# *//' >&2
  exit 2
fi
parent_tree=$(cd "$1" && pwd)
change_tree=$(cd "$2" && pwd)
parent_commit=$3
change_commit=$4
workload=$5
seed=$6
pairs=$7

runs=$(mktemp -d "${TMPDIR:-/tmp}/ledger_ab.XXXXXX")
echo "ledger_ab: run output in $runs" >&2

run_side() {  # run_side SIDE TREE PAIR
  bash "$2/bench/ledger/run.sh" --workload "$workload" --seed "$seed" \
    >"$runs/$1_$3.out" 2>>"$runs/build.log"
}

cpu_jiffies() {  # prints "STEAL TOTAL", or nothing if /proc/stat is unreadable
  local cpu user nice system idle iowait irq softirq steal rest
  if read -r cpu user nice system idle iowait irq softirq steal rest \
    2>/dev/null </proc/stat && [[ $cpu == cpu && -n $steal ]]; then
    echo "$steal $((user + nice + system + idle + iowait + irq + softirq + steal))"
  fi
}

cpu_before=$(cpu_jiffies)
for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then
    run_side parent "$parent_tree" "$i"
    run_side change "$change_tree" "$i"
  else
    run_side change "$change_tree" "$i"
    run_side parent "$parent_tree" "$i"
  fi
  echo "ledger_ab: pair $((i + 1))/$pairs done" >&2
done
cpu_after=$(cpu_jiffies)

python3 - "$runs" "$change_tree/BENCHMARK.json" "$parent_commit" \
  "$change_commit" "$workload" "$seed" "$pairs" "$(nproc)" \
  "$cpu_before" "$cpu_after" <<'EOF'
import json
import statistics
import sys

(runs, benchmark, parent, change, workload, seed, pairs, cpus, cpu_before,
 cpu_after) = sys.argv[1:]
seed, pairs, cpus = int(seed), int(pairs), int(cpus)
metrics = json.load(open(benchmark))["end_to_end"]

steal_pct = None
if cpu_before and cpu_after:
    (steal0, total0), (steal1, total1) = (
        map(int, s.split()) for s in (cpu_before, cpu_after))
    if total1 > total0:
        steal_pct = round(100.0 * (steal1 - steal0) / (total1 - total0), 2)


def load(side, pair):
    lines = open(f"{runs}/{side}_{pair}.out").read().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


sides = {side: [load(side, i) for i in range(pairs)]
         for side in ("parent", "change")}


def summary(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def fmt(s):
    return f"{s['median']:.6g} ({s['q1']:.6g}-{s['q3']:.6g})"


print(f"{workload} seed {seed}, {pairs} pairs: parent {parent[:12]} -> "
      f"change {change[:12]}, {cpus} CPUs")
print(f"{'metric':<18} {'parent median (q1-q3)':<40} "
      f"{'change median (q1-q3)':<40} change won")
entry_metrics = {}
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [r["metrics"][name]["value"] for r, _ in results]
              for side, results in sides.items()}
    won = sum(1 for p, c in zip(values["parent"], values["change"])
              if (c > p if higher else c < p))
    stats = {side: summary(v) for side, v in values.items()}
    print(f"{name:<18} {fmt(stats['parent']):<40} {fmt(stats['change']):<40} "
          f"{won}/{pairs}")
    entry_metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                           "parent": stats["parent"], "change": stats["change"],
                           "change_won": won}

same_digest = all(p[1] is not None and p[1] == c[1]
                  for p, c in zip(sides["parent"], sides["change"]))
failed = {side: sum(r["failed"] for r, _ in results)
          for side, results in sides.items()}
attempted = {side: sum(r["attempted"] for r, _ in results)
             for side, results in sides.items()}
correct = all(r["correct"] for results in sides.values() for r, _ in results)
print(f"digests identical in every pair: {'yes' if same_digest else 'NO'}; "
      f"every run correct: {'yes' if correct else 'NO'}; failed operations: "
      f"parent {failed['parent']} of {attempted['parent']}, "
      f"change {failed['change']} of {attempted['change']}")
print("cpu steal over the set: " +
      ("null" if steal_pct is None else f"{steal_pct}%"))
print("BENCH_ledger.json entry:")
print(json.dumps({
    "commit": change,
    "parent": parent,
    "cpus": cpus,
    "command": f"bash bench/ledger/run.sh --workload {workload} --seed {seed}",
    "workload": workload,
    "seeds": [seed],
    "pairs": pairs,
    "digests_identical": same_digest,
    "failed": failed,
    "steal_pct": steal_pct,
    "metrics": entry_metrics,
}, indent=2))
EOF
