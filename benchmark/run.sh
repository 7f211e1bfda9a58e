#!/usr/bin/env bash
# The benchmark's command: builds the ladder from source (offline, against
# the stand-ins under stubs/) and runs it with the arguments given.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --all --out DIR [--seed N] [--seconds S]
#   bash benchmark/run.sh --check DIR_A DIR_B
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR,
# or to benchmark/target when that is unset; results go to <target>/ladder
# unless --out names another directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

# One hardware thread for the driver and the engine's whole worker pool: on
# the 2-vCPU reference container the unpinned stack flips between keeping
# its 33 threads on one vCPU and spreading them over both, and the two
# regimes differ by a factor of two in msg_rate (see README.md).
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(awk '/^Cpus_allowed_list:/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)"
    pin=(taskset -c "${cpu:-0}")
else
    echo "run.sh: taskset not found, running unpinned" >&2
fi

exec "${pin[@]}" "$target/release/ladder" "$@"
