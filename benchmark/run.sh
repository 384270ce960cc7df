#!/usr/bin/env bash
# Everything root CI does not see, for this standalone workspace: format
# check, clippy with warnings denied, unit tests, then the whole ledger.
# Builds into the root `target/` so the product crates compile once.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
manifest="$here/Cargo.toml"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --manifest-path "$manifest"
cargo run --release --manifest-path "$manifest" -- all "$@"
