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
# indentation, which is where skipping ends, unless that line lies
# inside a string: within a skipped item a small lexer follows string
# literals (`str` is the delimiter that closes the open one: `"`, or
# `"` plus the hashes of a raw string), so a fixture in a raw string
# with a bare `}` line does not end the skip.
count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        function ident(i) {
            return i > 0 && substr(line, i, 1) ~ /[A-Za-z0-9_]/
        }
        function lex(    i, j, c, n) {
            n = length(line)
            for (i = 1; i <= n; i++) {
                c = substr(line, i, 1)
                if (str == "\"") {
                    if (c == "\\") i++
                    else if (c == "\"") str = ""
                } else if (str != "") {
                    j = index(substr(line, i), str)
                    if (j == 0) return
                    i += j + length(str) - 2
                    str = ""
                } else if (c == "/" && substr(line, i + 1, 1) == "/") {
                    return
                } else if (c == "\"") {
                    str = c
                } else if (c == "r" && match(substr(line, i + 1), /^#*"/) \
                           && (!ident(i - 1) || substr(line, i - 1, 1) == "b" && !ident(i - 2))) {
                    str = "\"" substr(line, i + 1, RLENGTH - 1)
                    i += RLENGTH
                } else if (c == "'\''") {
                    # A char literal, whose quote is no string; else a
                    # lifetime.
                    if (substr(line, i + 1, 1) == "\\") {
                        j = index(substr(line, i + 3), "'\''")
                        if (j > 0) i += j + 2
                    } else if (substr(line, i + 2, 1) == "'\''") {
                        i += 2
                    }
                }
            }
        }
        FNR == 1 { skip = ""; pending = 0; str = "" }
        {
            trimmed = $0
            sub(/^[ \t]+/, "", trimmed)
            if (skip != "") {
                if (str == "" && $0 == skip) skip = ""
                else { line = $0; lex() }
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
