#!/usr/bin/env bash
# Per-crate count of non-test source lines: physical lines of every
# `src/**/*.rs` before the file's first `#[cfg(test)]` line. This is the
# number ROADMAP aim 2 ("least code") is quoted in; informational only.
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for src in crates/*/src vendor/*/src; do
    lines=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-24s %6d\n' "$src" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"
