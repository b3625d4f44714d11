#!/bin/sh
# Check that this checkout writes the same benchmark outputs as BASE, byte for byte.
#
# Usage: tools/same_outputs.sh BASE      (BASE: any git revision, e.g. HEAD~1)
#
# Runs perfbench/run.py on the reference and midsize workloads at seeds 0
# and 26, 2 s each, once in a copy of BASE's committed files (unpacked with
# `git archive`, so that nothing is written under .git) and once in
# this checkout (its working tree, uncommitted changes included).  Each side
# also runs `pairdeg sweep` on the configs tools/wide_sweep_*.ini of this
# checkout (gamma in [-2, 1], 61 samples: on the reference model, classified
# and unclassified, and on L5, whose discriminant retries its radius),
# `pairdeg encircle` on tools/long_loop_*.ini (six turns around the L7
# exceptional point, whose later stacks repeat earlier couplings) and
# `pairdeg atlas` on tools/atlas_*.ini (101-point heatmaps whose rows mirror
# earlier rows: L7 on +-6, where a row and its partner can sit in different
# stacks, and the reference on an asymmetric window), writing into its
# .perfbench_out/.
# Then compares the two .perfbench_out/ trees with diff -r, leaving out the
# timing spans (spans.json).  Last, this checkout runs reference and midsize
# at seed 0 once more under `taskset -c 0`, into a tree of its own, which
# must equal the all-CPU tree the same way: no output may depend on the
# number of CPUs, through OpenBLAS's own threads included (skipped with a
# note where taskset is missing).  Exits non-zero on any difference, and otherwise ends with the
# line delta of src/ against BASE.  Both .perfbench_out/ trees are
# rewritten; the copy of BASE and the one-CPU tree are removed on exit, and
# are made under $TMPDIR (default /tmp).
set -eu

base=${1:?usage: tools/same_outputs.sh BASE}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
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
    for config in "$root"/tools/wide_sweep_*.ini "$root"/tools/long_loop_*.ini \
            "$root"/tools/atlas_*.ini; do
        case $(basename "$config") in
            wide_sweep_*) command=sweep ;;
            long_loop_*) command=encircle ;;
            *) command=atlas ;;
        esac
        out=$dir/.perfbench_out/$(basename "$config" .ini)
        if ! (cd "$dir" && PYTHONPATH=src python3 -m pairdeg.cli "$command" \
                --config "$config" --out "$out" > "$work/run.log" 2>&1); then
            cat "$work/run.log"
            echo "pairdeg $command failed: $config in $dir" >&2
            exit 1
        fi
        echo "$side $(basename "$config"): $(cat "$work/run.log")"
    done
done
diff -r -x spans.json "$work/base/.perfbench_out" "$root/.perfbench_out"
echo "same outputs: $base and this checkout, reference and midsize at seeds 0 and 26," \
    "the wide sweeps, the long loop and the atlas configs"
if command -v taskset > /dev/null 2>&1; then
    mv "$root/.perfbench_out" "$work/all-cpus"
    for workload in reference midsize; do
        if ! (cd "$root" && taskset -c 0 python3 perfbench/run.py --workload "$workload" \
                --seed 0 --seconds 2 > "$work/run.log" 2>&1); then
            cat "$work/run.log"
            mv "$work/all-cpus" "$root/.perfbench_out"
            echo "perfbench failed under taskset -c 0: $workload seed 0" >&2
            exit 1
        fi
        echo "one CPU $workload seed 0: $(tail -n 1 "$work/run.log" | cut -c 1-45)"
    done
    rm -rf "$work/one-cpu"
    mv "$root/.perfbench_out" "$work/one-cpu"
    mv "$work/all-cpus" "$root/.perfbench_out"
    for tree in "$work/one-cpu"/*; do
        diff -r -x spans.json "$root/.perfbench_out/$(basename "$tree")" "$tree"
    done
    echo "same outputs: this checkout on one CPU and on all, reference and midsize at seed 0"
else
    echo "taskset not found: the one-CPU comparison is skipped"
fi
echo "src/ against $base:$(git -C "$root" diff --shortstat "$base" -- src)"
