#!/bin/sh
# Build, one untraced set, one traced set, and the compare of the two:
# the tables go to standard output; out/ keeps untraced.json,
# results.json and one trace file per workload. Extra arguments go to
# both runs (for example --seed 7 or --reps 3).
set -eu
here=$(dirname "$0")
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}
bench run "$@"
cp "$here/out/results.json" "$here/out/untraced.json"
bench run --trace "$@"
bench compare "$here/out/untraced.json" "$here/out/results.json"
