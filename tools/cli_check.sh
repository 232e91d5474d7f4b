#!/bin/sh
# cli-check: the command-line contract of the table-driven mains
# (src/system/cli.h). Two modes, each registered as CTests:
#
#   cli_check.sh help BIN NAME...
#       `BIN --help` exits 0 and prints every flag or variable NAME.
#   cli_check.sh documented README BIN...
#       README names every flag that any `BIN --help` prints, so the
#       docs cannot drift from the flag tables.
set -u

# Whole-word flag match: "--trace" must not match "--trace-in".
has_flag() {
    grep -q -E -e "(^|[^A-Za-z0-9_-])$1([^A-Za-z0-9_-]|\$)"
}

mode="${1:-}"
[ $# -ge 3 ] || { echo "usage: $0 help|documented ..." >&2; exit 2; }
shift
fail=0
case "$mode" in
help)
    bin="$1"
    shift
    out=$("$bin" --help) || { echo "$bin --help exited $?" >&2; exit 1; }
    for name in "$@"; do
        if ! printf '%s\n' "$out" | has_flag "$name"; then
            echo "cli-check: $bin --help does not list $name" >&2
            fail=1
        fi
    done
    ;;
documented)
    readme="$1"
    shift
    for bin in "$@"; do
        out=$("$bin" --help) || { echo "$bin --help failed" >&2; exit 1; }
        for flag in $(printf '%s\n' "$out" |
                      grep -o -E -e '--[a-z][a-z-]*' | sort -u); do
            if ! has_flag "$flag" < "$readme"; then
                echo "cli-check: $readme does not name $flag" \
                     "(printed by $(basename "$bin") --help)" >&2
                fail=1
            fi
        done
    done
    ;;
*)
    echo "usage: $0 help|documented ..." >&2
    exit 2
    ;;
esac
exit $fail
