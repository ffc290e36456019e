#!/bin/sh
# Smoke check of the end-to-end benchmark: every workload at 1/100 size,
# twice, with every correctness check.  The two runs must print the same
# simulated outcome (sim_digest) and the same exact counts.
#
#   sh smoke.sh PATH/TO/e2e.exe
set -eu
e2e=$1
counts() {
  out=$("$e2e" --workload "$1" --seed 1 --smoke) || {
    echo "smoke: $1 failed its checks" >&2
    echo "$out" >&2
    exit 1
  }
  echo "$out" | grep -E '^(sim_digest|engine\.events_per_op|gc\.minor_words_per_op) '
}
for w in tunnel-udp direct-tcp handover-churn soak-sweep; do
  first=$(counts "$w")
  second=$(counts "$w")
  if [ "$first" != "$second" ]; then
    printf 'smoke: %s is not deterministic\n%s\n--\n%s\n' "$w" "$first" "$second" >&2
    exit 1
  fi
done
