#!/bin/sh
# Prints the golden PIMSIM-NN exports: the documents `pimsyn export pimsim`
# writes for two fast-effort jobs at seed 7, one per line. CI diffs its
# output against export_pimsim.jsonl. A change regenerates the file only
# when it bumps `FORMAT_VERSION` or moves a fast-effort winner, and lists
# each moved field old -> new in CHANGES.md:
#
#   tests/golden/export_pimsim.sh target/release/pimsyn > tests/golden/export_pimsim.jsonl
bin=${1:-target/release/pimsyn}
while read -r args; do
    "$bin" export pimsim $args --seed 7 --quiet
done <<'JOBS'
--model alexnet-cifar --power 9
--model transformer-tiny --power 9
JOBS
