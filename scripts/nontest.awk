# Prints the non-test lines of a Rust source file: everything except a
# `#[cfg(test)]` line that opens an inline `mod … {` and that module's
# body, up to its closing brace at the `mod` line's indent (rustfmt puts
# it there). A `#[cfg(test)]` on anything else — `mod reference;`, a
# single item — is kept, and so is what follows it.
# Usage: awk -f scripts/nontest.awk FILE   (or on stdin)
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
    print line
}
/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
    held = $0
    next
}
{ print }
END {
    if (held != "") print held
}
