#!/usr/bin/env bash
# Figures of merit for the "least code" aim (ROADMAP.md, Quality of design):
#
#   src_loc            lines of C++ (.h/.cpp) under src/
#   if_constexpr FILE  `if constexpr` branches per file under src/core/
#   btree_params       template parameters of the core `btree` class
#
# Read-only; prints `name value` lines so two runs diff cleanly.
#
# Usage: scripts/size.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "src_loc $(find src -type f \( -name '*.h' -o -name '*.cpp' \) -print0 |
    xargs -0 cat | wc -l)"

total=0
for f in src/core/*.h; do
    n=$(grep -c 'if constexpr' "$f" || true)
    total=$((total + n))
    echo "if_constexpr $f $n"
done
echo "if_constexpr_total $total"

# The parameter list is the `template <...>` immediately above `class btree {`;
# count its top-level commas (nested <...> and (...) excluded) plus one.
awk '
    /^template *</ { buf = ""; collecting = 1 }
    collecting { buf = buf $0 "\n" }
    /^class btree \{/ {
        depth = 0; params = 1
        body = substr(buf, index(buf, "<"))
        for (i = 1; i <= length(body); ++i) {
            c = substr(body, i, 1)
            if (c == "<" || c == "(") ++depth
            else if (c == ">" || c == ")") { if (--depth == 0) break }
            else if (c == "," && depth == 1) ++params
        }
        print "btree_params " params
        exit
    }
' src/core/btree.h
