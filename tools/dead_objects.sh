#!/usr/bin/env bash
# Dead-object guard: every object file of every shipped vtrans library
# must define at least one global vtrans symbol (outside a `detail`
# namespace) that some non-test binary under bench/, examples/ or
# tools/ carries. The linker pulls a static-archive member into a
# binary only when something references it, so an object that no such
# binary carries is code that only tests reach. Fails naming each one.
#
#   tools/dead_objects.sh [build-dir]
#
# The libraries are the `add_library(vtrans_*)` targets of src/, so a
# stale archive left in an incremental build directory is not checked.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

linked=$(mktemp)
trap 'rm -f "$linked"' EXIT
find "$BUILD_DIR"/bench "$BUILD_DIR"/examples "$BUILD_DIR"/tools \
    -maxdepth 1 -type f -perm -u+x -exec nm --defined-only {} + \
    | awk '$3 ~ /^_ZN6vtrans/ { print $3 }' | sort -u > "$linked"
if [[ ! -s "$linked" ]]; then
    echo "dead-object guard: no production binaries under $BUILD_DIR" >&2
    exit 1
fi

dead=0
for lib in $(grep -ho 'add_library(vtrans_[a-z_]*' src/*/CMakeLists.txt \
                 | sed 's/add_library(//' | sort); do
    archive=$(find "$BUILD_DIR"/src -name "lib$lib.a" | head -n 1)
    if [[ -z "$archive" ]]; then
        echo "dead-object guard: lib$lib.a was not built" >&2
        exit 1
    fi
    # Members with a global strong (T/D/B/R) vtrans symbol that some
    # production binary defines too.
    live=$(nm --defined-only -A "$archive" 2>/dev/null \
        | awk -v linked="$linked" '
            BEGIN { while ((getline s < linked) > 0) keep[s] = 1 }
            {
                n = split($1, path, ":")
                if ($2 ~ /^[TDBR]$/ && $3 ~ /^_ZN6vtrans/ \
                    && $3 !~ /6detail/ && ($3 in keep)) {
                    print path[n - 1]
                }
            }' | sort -u)
    for member in $(ar t "$archive"); do
        if ! grep -qxF "$member" <<< "$live"; then
            echo "dead object: $archive($member): no production binary" \
                 "links any of its symbols" >&2
            dead=1
        fi
    done
done
exit "$dead"
