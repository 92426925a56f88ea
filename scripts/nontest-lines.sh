#!/bin/sh
# Non-test source size, the number every PR's size table quotes: for each
# .rs under crates/ and src/ (integration-test directories excluded) the lines
# before its first top-level `#[cfg(test)]`. One "lines file" row per file,
# largest first, then the total.
find crates src -name '*.rs' -not -path '*/tests/*' | sort | xargs awk '
  FNR == 1 { stop = 0 } /^#\[cfg\(test\)\]/ { stop = 1 } !stop { n[FILENAME]++; total++ }
  END { for (f in n) print n[f], f | "sort -rn"; close("sort -rn"); print total, "total" }'
