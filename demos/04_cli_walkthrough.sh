#!/bin/sh
# End-to-end walkthrough of the command-line interface:
# simulate a graph, select (model, K) on it, and run a small benchmark.
set -e

tmp=$(mktemp -d)

# 1. write a 2-block sample as an edge list (plus a .labels sidecar)
python3 -m netcv.cli simulate sbm --n 200 --k 2 --b-diag 0.25 --b-off 0.05 \
    --seed 42 --output "$tmp/graph.txt"

# 2. cross-validated selection over {sbm, dcbm} x {1..4}
python3 -m netcv.cli select --input "$tmp/graph.txt" --kmax 4 --seed 7 \
    --output "$tmp/report.json"
python3 -c "import json; r = json.load(open('$tmp/report.json')); \
print('selected:', r['selected'])"

# 3. a tiny success-rate table on stdout, its replicates on two processes
python3 -m netcv.cli bench sim1 --n 200 --k 2 --n1 100 --r 0.2 --reps 3 --seed 1 --threads 2

rm -rf "$tmp"
