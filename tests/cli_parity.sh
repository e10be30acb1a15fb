#!/usr/bin/env bash
# Write the CLI parity set (54 files, plus a .err file per command that
# writes to stderr: the 6 sweeps) into OUTDIR:
#   - norms --depth 14 --seed 5 on ten weights under every shift (30 CSVs);
#   - sweep power and cascade at depth 10 under every shift (6);
#   - verify at depths 2/4/8/10 with seeds 1/7/11 (12);
#   - battery and corona on two weights at depth 12 (4);
#   - kernel at depths 2 and 7 (2).
# Each file holds the command's stdout, plus its exit status when nonzero;
# what the command writes to stderr (sweep's slope fits without --out, the
# warnings of norms and sweep) goes to a NAME.err sibling, kept when not empty.
# Run it on two checkouts and compare them:
#   tests/cli_parity.sh /tmp/before   # on the old commit
#   tests/cli_parity.sh /tmp/after    # on the new one
#   diff -r /tmp/before /tmp/after
# A change that keeps every output bit leaves no difference.
set -euo pipefail

out=${1:?usage: tests/cli_parity.sh OUTDIR}
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"

run() {
    local name=$1
    shift
    { PYTHONPATH="$root/src" python -m haarshift "$@" || echo "exit status $?"; } \
        >"$out/$name" 2>"$out/$name.err"
    [ -s "$out/$name.err" ] || rm "$out/$name.err"
}

weights=(
    cascade:eps=0.15,seed=5 cascade:eps=0.3,seed=5 cascade:eps=0.45,seed=5
    cascade:eps=0.6,seed=5 cascade:eps=0.75,seed=5
    power:alpha=-0.5 power:alpha=0.3 power:alpha=0.9
    cascade:eps=0.4,seed=3 cascade:eps=0.35,seed=7
)
for weight in "${weights[@]}"; do
    for shift in identity half full; do
        run "norms_${weight//[:=,]/_}_$shift.csv" norms --weight "$weight" \
            --depth 14 --seed 5 --shift "$shift"
    done
done

for shift in identity half full; do
    run "sweep_power_$shift.csv" sweep --family power --params=-0.5,0.3,0.9 \
        --depth 10 --shift "$shift" --workers 0
    run "sweep_cascade_$shift.csv" sweep --family cascade --params=0.3,0.5,0.7 \
        --depth 10 --shift "$shift" --workers 0
done

for depth in 2 4 8 10; do
    for seed in 1 7 11; do
        run "verify_d${depth}_s$seed.txt" verify --depth "$depth" --seed "$seed"
    done
done

for weight in cascade:eps=0.6,seed=5 power:alpha=0.5; do
    run "battery_${weight//[:=,]/_}.txt" battery --weight "$weight" --depth 12
    run "corona_${weight//[:=,]/_}.txt" corona --weight "$weight" --depth 12
done

for depth in 2 7; do
    run "kernel_d$depth.txt" kernel --depth "$depth"
done
