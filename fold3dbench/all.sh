#!/usr/bin/env bash
# Run every workload once with tracing off and print its end-to-end metrics,
# failed_frac and fingerprint:
#
#   bash fold3dbench/all.sh [seed] [seconds]
#
# Exits non-zero at the first workload whose outputs fail a check.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for w in $(bash "$dir/run.sh" --list | cut -f1); do
	echo "== $w"
	bash "$dir/run.sh" --workload "$w" --seed "${1:-1}" --seconds "${2:-20}" --trace 0
done
