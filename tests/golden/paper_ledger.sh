#!/bin/sh
# Prints the golden paper ledger: the JSON summaries of the seven paper-effort
# jobs at seed 7 (the five ledger jobs, then two with identical macros), one
# per line, with `elapsed_s` stripped. CI diffs its output against
# paper_ledger.jsonl; a change that moves a winner or a count regenerates it:
#
#   tests/golden/paper_ledger.sh target/release/pimsyn > tests/golden/paper_ledger.jsonl
bin=${1:-target/release/pimsyn}
while read -r args; do
    "$bin" $args --effort paper --seed 7 --output json --quiet
done <<'JOBS' | sed -E 's/"elapsed_s": *[0-9.eE+-]+//'
--model alexnet-cifar --power 9
--model vgg16-cifar --power 15
--model resnet18-cifar --power 15
--model transformer-tiny --power 9
--model resnet18 --power 65
--model vgg16-cifar --power 15 --macros identical
--model transformer-tiny --power 9 --macros identical
JOBS
