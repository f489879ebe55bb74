# Prints the non-test lines of a Rust source file: everything except a
# `#[cfg(test)]` line that opens an inline `mod … {` and that module's
# body, up to its closing brace at the `mod` line's indent (rustfmt puts
# it there), and a `#[cfg(test)]` line over a `mod name;` line, with that
# line. A `#[cfg(test)]` on anything else — a single item — is kept, and
# so is what follows it.
# With `-v mods=1` it prints instead the files that `#[cfg(test)] mod
# name;` lines declare, each as `name.rs` and `name/mod.rs` beside a
# lib.rs, main.rs or mod.rs, else under the declaring file's own
# directory; the declaring file is `-v path=…`, or the file being read.
# Those files are test code whole.
# Usage: awk -f scripts/nontest.awk FILE   (or on stdin)
#        awk -v mods=1 -f scripts/nontest.awk FILE…
#        awk -v mods=1 -v path=FILE -f scripts/nontest.awk   (on stdin)
function out(text) {
    if (!mods) print text
}
FNR == 1 {
    skip = 0
    held = ""
}
skip {
    if ($0 == closing) skip = 0
    next
}
held != "" {
    line = held
    held = ""
    if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*\{[[:space:]]*$/) {
        match($0, /^[[:space:]]*/)
        closing = substr($0, 1, RLENGTH) "}"
        skip = 1
        next
    }
    if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*;[[:space:]]*$/) {
        if (mods) {
            name = $0
            sub(/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+/, "", name)
            sub(/[[:space:]]*;[[:space:]]*$/, "", name)
            dir = path != "" ? path : FILENAME
            if (dir ~ /(^|\/)(lib|main|mod)\.rs$/) sub(/[^\/]*$/, "", dir)
            else sub(/\.rs$/, "/", dir)
            print dir name ".rs"
            print dir name "/mod.rs"
        }
        next
    }
    out(line)
}
/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
    held = $0
    next
}
{ out($0) }
END {
    if (held != "") out(held)
}
