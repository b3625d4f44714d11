#!/bin/sh
# Check that this checkout writes the same benchmark outputs as BASE, byte for byte.
#
# Usage: tools/same_outputs.sh BASE      (BASE: any git revision, e.g. HEAD~1)
#
# Runs perfbench/run.py on the reference and midsize workloads at seeds 0
# and 26, 2 s each, once in a temporary git worktree of BASE and once in
# this checkout (its working tree, uncommitted changes included).  Each side
# also runs `pairdeg sweep` on the configs tools/wide_sweep_*.ini of this
# checkout (gamma in [-2, 1], 61 samples, on the reference model and on L5,
# whose discriminant retries its radius), writing into its .perfbench_out/.
# Then compares the two .perfbench_out/ trees with diff -r, leaving out the
# timing spans (spans.json).  Exits non-zero on any difference, and
# otherwise ends with the line delta of src/ against BASE.  Both
# .perfbench_out/ trees are rewritten; the worktree is removed on exit, and
# is made under $TMPDIR (default /tmp).
set -eu

base=${1:?usage: tools/same_outputs.sh BASE}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

git -C "$root" worktree add --quiet --detach "$work/base" "$base"
for side in base checkout; do
    dir=$root
    [ "$side" = base ] && dir=$work/base
    rm -rf "$dir/.perfbench_out"
    for workload in reference midsize; do
        for seed in 0 26; do
            if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
                    --seed "$seed" --seconds 2 > "$work/run.log" 2>&1); then
                cat "$work/run.log"
                echo "perfbench failed: $workload seed $seed in $dir" >&2
                exit 1
            fi
            echo "$side $workload seed $seed: $(tail -n 1 "$work/run.log" | cut -c 1-45)"
        done
    done
    for config in "$root"/tools/wide_sweep_*.ini; do
        out=$dir/.perfbench_out/$(basename "$config" .ini)
        if ! (cd "$dir" && PYTHONPATH=src python3 -m pairdeg.cli sweep \
                --config "$config" --out "$out" > "$work/run.log" 2>&1); then
            cat "$work/run.log"
            echo "pairdeg sweep failed: $config in $dir" >&2
            exit 1
        fi
        echo "$side $(basename "$config"): $(cat "$work/run.log")"
    done
done
diff -r -x spans.json "$work/base/.perfbench_out" "$root/.perfbench_out"
echo "same outputs: $base and this checkout, reference and midsize at seeds 0 and 26," \
    "and the wide sweeps"
echo "src/ against $base:$(git -C "$root" diff --shortstat "$base" -- src)"
