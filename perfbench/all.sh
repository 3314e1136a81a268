#!/bin/sh
# Run every workload in turn, checking every answer:
#     sh perfbench/all.sh [seed] [seconds] [trace 0|1]
# from the repository root. Stops at the first run that cannot start.
set -e
for workload in doubling construct corpus-oracle; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" \
        --seed "${1:-1}" --seconds "${2:-30}" --trace "${3:-0}"
done
