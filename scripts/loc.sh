#!/usr/bin/env bash
# Counts non-test lines per crate under crates/*/src: every line outside
# a `#[cfg(test)] mod … { … }` block, plus one per file (a file's lines
# are its newline-separated pieces, one more than `wc -l` counts).
# Informational: nothing fails on the number.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { lines++; cfg = 0; skip = 0 }
        skip { if (/^}/) skip = 0; next }
        /^#\[cfg\(test\)\]$/ { cfg = 1; next }
        cfg && /^(pub )?mod [a-z_0-9]+ \{$/ { cfg = 0; skip = 1; next }
        cfg { cfg = 0; lines++ }
        { lines++ }
        END { print lines + 0 }')
    printf '%-10s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
