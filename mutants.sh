#!/usr/bin/env bash
# Mutation check for the workspace's oracles. Run from the repo root.
#
# Each mutants/NNN-name.patch is a small, `git apply`-able breakage of the
# code, with a header that says what it breaks and a line
#
#   Must fail: <test> <test> ...
#
# naming the tests that must catch it: `<name>` is an integration test of
# the root package (`tests/<name>.rs`, run as `cargo test -p crowd4u --test
# <name>`), and `<package>:<filter>` the unit tests of a package's library
# whose names contain `<filter>` (`cargo test -p <package> --lib
# <filter>`). The script checks out the committed HEAD into one
# throwaway `git worktree` under a fresh temporary directory (`mktemp -d`),
# builds there into its own target directory, and then:
#   1. runs every named test on the unmutated tree: each must pass, so a
#      failure below is the mutant's doing;
#   2. for each patch in turn: applies it, builds the named tests (a mutant
#      that does not build is an error, not a kill), runs each named test
#      on its own, and reverts the patch;
# and exits non-zero if any named test passed with its mutant applied (the
# mutant survived). The worktree and the temporary directory are removed
# on exit. Uncommitted changes are not checked: commit first.
#
# A change that adds an oracle adds its mutant here. A mutant that survives
# on main is a finding, not a patch to delete.
set -euo pipefail
cd "$(dirname "$0")"
root=$(pwd)
start=$SECONDS

work=$(mktemp -d)
tree="$work/tree"
log="$work/cargo.log"
cleanup() {
    git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" HEAD
export CARGO_TARGET_DIR="$work/target"

# must_fail <patch>: the test names on the patch's `Must fail:` line.
must_fail() {
    sed -n 's/^Must fail: //p' "$1"
}

# run_test <entry> [cargo args...]: `cargo test` in the worktree for one
# `Must fail:` entry, output to the log (`--no-run` builds only):
# `<package>:<filter>` runs that package's library unit tests matching the
# filter, any other name the root package's integration test of that name.
run_test() {
    local entry="$1"
    shift
    if [[ "$entry" == *:* ]]; then
        (cd "$tree" && cargo test -q -p "${entry%%:*}" --lib "$@" -- "${entry#*:}") >>"$log" 2>&1
    else
        (cd "$tree" && cargo test -q -p crowd4u --test "$entry" "$@") >>"$log" 2>&1
    fi
}

patches=(mutants/*.patch)
all_tests=$(for p in "${patches[@]}"; do must_fail "$p"; done | tr ' ' '\n' | sort -u)

echo "==> unmutated tree: the named tests pass"
for t in $all_tests; do
    if ! run_test "$t"; then
        echo "!! $t fails without a mutant; see the output below"
        tail -n 40 "$log"
        exit 1
    fi
    echo "   $t passes"
done

survivors=()
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    tests=$(must_fail "$patch")
    if [ -z "$tests" ]; then
        echo "!! $name: no 'Must fail:' line"
        exit 1
    fi
    echo
    echo "==> $name"
    git -C "$tree" apply "$root/$patch"
    for t in $tests; do
        if ! run_test "$t" --no-run; then
            echo "!! $name does not build; see the output below"
            tail -n 40 "$log"
            exit 1
        fi
    done
    for t in $tests; do
        if run_test "$t"; then
            echo "!! $t passes: the mutant survived"
            survivors+=("$name: $t")
        else
            echo "   $t fails (killed)"
        fi
    done
    git -C "$tree" checkout --quiet -- .
done

echo
echo "mutants: $((SECONDS - start)) s"
if [ ${#survivors[@]} -gt 0 ]; then
    echo "${#survivors[@]} named test(s) missed their mutant:"
    printf '  - %s\n' "${survivors[@]}"
    exit 1
fi
echo "every mutant was killed by every test it names."
