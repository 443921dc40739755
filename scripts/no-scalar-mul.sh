#!/usr/bin/env bash
# Fails unless every named function in the release build contains zero
# widening scalar multiplies (`mul` / `mulx`), and fails if a named
# function is missing, so a rename cannot skip the check silently.
#
#   bash scripts/no-scalar-mul.sh unintt_ntt::vector::x86::gl_stages_avx512 ...
#
# Each name is looked up in the newest `target/release/deps/lib<crate>-*.rlib`,
# where <crate> is the name's first path segment; build with
# `cargo build --release -p <crate>` first. The explicit-SIMD kernels must
# stay vector code: LLVM has scalarised the 64-bit multiply-high inside
# `gl_mul` before, and that cost every Goldilocks NTT stage 8x. `imul` is
# not counted: it appears in these functions for address arithmetic.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <crate::path::to::function>..." >&2
    exit 2
fi

failed=0
for sym in "$@"; do
    crate=${sym%%::*}
    rlib=$(ls -t target/release/deps/lib"$crate"-*.rlib 2>/dev/null | head -n 1 || true)
    if [ -z "$rlib" ]; then
        echo "FAIL $sym: no release rlib for $crate under target/release/deps" >&2
        failed=1
        continue
    fi
    # One line per function body instruction; the body ends at a blank line.
    count=$(objdump -d -C --no-show-raw-insn "$rlib" | awk -v head="<$sym>:" '
        index($0, head) && $0 ~ /^[0-9a-f]+ </ { inside = 1; found = 1; next }
        inside && NF == 0 { inside = 0 }
        inside {
            split($0, field, "\t")
            split(field[2], word, " ")
            if (word[1] ~ /^mulx?[bwlq]?$/) muls++
        }
        END { print found ? muls + 0 : "missing" }')
    if [ "$count" = "missing" ]; then
        echo "FAIL $sym: not found in $rlib" >&2
        failed=1
    elif [ "$count" -ne 0 ]; then
        echo "FAIL $sym: $count scalar mul/mulx" >&2
        failed=1
    else
        echo "ok   $sym: 0 scalar mul/mulx"
    fi
done
exit "$failed"
