#!/usr/bin/env bash
# Public-API snapshot check (a cargo-public-api shim for the offline
# toolchain): rustdoc emits exactly one HTML page per public item, so
# the sorted list of item pages across every mpros crate *is* the
# public surface. The list is committed as API_SURFACE.txt; any drift —
# a new pub item, a removal, a rename, an item demoted to pub(crate) —
# fails CI until the change is deliberately re-blessed.
#
#   scripts/api_surface.sh          # diff the surface against API_SURFACE.txt
#   scripts/api_surface.sh --bless  # rewrite API_SURFACE.txt from the code
#
# Docs are built into their own target dir (wiped per run) so stale
# pages from renamed items can never leak into the snapshot, with
# rustdoc warnings denied: this build is also CI's doc-warning check.
set -euo pipefail
cd "$(dirname "$0")/.."

SNAPSHOT=API_SURFACE.txt
TARGET_DIR=target/api-surface

rm -rf "$TARGET_DIR/doc"
RUSTDOCFLAGS="-D warnings" CARGO_TARGET_DIR="$TARGET_DIR" cargo doc --workspace --no-deps --quiet

current=$(mktemp)
trap 'rm -f "$current"' EXIT
# Item pages only (struct./enum./fn./...), plus each module's
# index.html — crate-internal assets (sidebars, search index, css)
# stay out. Shim crates (rand, serde, ...) are not part of the
# supported surface and are excluded by the mpros* prefix.
(
    cd "$TARGET_DIR/doc"
    find mpros* -type f \
        \( -name 'index.html' \
        -o -name 'struct.*.html' \
        -o -name 'enum.*.html' \
        -o -name 'trait.*.html' \
        -o -name 'fn.*.html' \
        -o -name 'constant.*.html' \
        -o -name 'static.*.html' \
        -o -name 'type.*.html' \
        -o -name 'macro.*.html' \
        -o -name 'union.*.html' \
        -o -name 'derive.*.html' \) \
        | LC_ALL=C sort
) > "$current"

if [[ "${1:-}" == "--bless" ]]; then
    cp "$current" "$SNAPSHOT"
    echo "api_surface: blessed $(wc -l < "$SNAPSHOT" | tr -d ' ') items into $SNAPSHOT"
    exit 0
fi

if [[ ! -f "$SNAPSHOT" ]]; then
    echo "api_surface: $SNAPSHOT missing — run scripts/api_surface.sh --bless" >&2
    exit 1
fi

if ! diff -u "$SNAPSHOT" "$current"; then
    echo >&2
    echo "api_surface: public surface drifted from $SNAPSHOT." >&2
    echo "If the change is intentional, re-bless: scripts/api_surface.sh --bless" >&2
    exit 1
fi
echo "api_surface: $(wc -l < "$SNAPSHOT" | tr -d ' ') public items unchanged"
