#!/usr/bin/env bash
# Build oodbench and the oodgnn-serve binary it drives (release, offline),
# then run oodbench with this script's arguments. Run it from the
# repository root; the build goes to $CARGO_TARGET_DIR (default
# .bench_build).
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "$CARGO_TARGET_DIR/release/oodbench" "$@"
