#!/usr/bin/env bash
# Counts the public items of each workspace crate and their total.
#
# An item is a line whose first word is `pub ` (so `pub(crate)`,
# `pub mod` and `pub use` do not count; struct fields do), above the
# first `#[cfg(test)]` of its file, in `crates/*/src`; `proptests.rs`
# files are skipped. Prints one `crate count` line per crate, then
# `total N`.
#
#   scripts/pub-items.sh            # from the repository root
#   scripts/pub-items.sh --max N    # also fail when the total exceeds N
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    name=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' ! -name proptests.rs -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { live = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
            live && /^[[:space:]]*pub / && !/^[[:space:]]*pub (mod|use) / { n++ }
            END { print n + 0 }')
    echo "$name $n"
    total=$((total + n))
done
echo "total $total"

if [[ "${1:-}" == "--max" ]]; then
    if ((total > $2)); then
        echo "public items grew: $total > $2" >&2
        exit 1
    fi
fi
