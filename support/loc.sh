#!/bin/sh
# Counts the workspace's non-test Rust lines, per crate and in total:
# non-blank lines that are not `//` comments (doc comments included),
# outside `#[cfg(test)]` items. Integration tests (`tests/`) and the
# offline shims (`support/`) are not counted. This is the count the
# change log reports as net non-test lines; diff two checkouts' outputs
# to get a change's figure.
#
# Usage: support/loc.sh    (prints a markdown table; any working dir)
set -eu
cd "$(dirname "$0")/.."

# Lines of the `.rs` files under the given directories. rustfmt puts
# the closing brace of a `#[cfg(test)]` item at the attribute's own
# indentation, which is where skipping ends.
count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = ""; pending = 0 }
        {
            trimmed = $0
            sub(/^[ \t]+/, "", trimmed)
            if (skip != "") {
                if ($0 == skip) skip = ""
                next
            }
            if (pending) {
                pending = 0
                if (trimmed ~ /\{$/) skip = indent "}"
                next
            }
            if (trimmed == "#[cfg(test)]") {
                pending = 1
                match($0, /^[ \t]*/)
                indent = substr($0, 1, RLENGTH)
                next
            }
            if (trimmed == "" || trimmed ~ /^\/\//) next
            n++
        }
        END { print n + 0 }'
}

total=0
echo "| crate | non-test lines |"
echo "| --- | ---: |"
for dir in crates/*/src src examples benchmark/src; do
    lines=$(count "$dir")
    total=$((total + lines))
    echo "| ${dir%/src} | $lines |"
done
echo "| total | $total |"
