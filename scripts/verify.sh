#!/usr/bin/env bash
# Tier-1 verification gate: fast-fail lint, then the full test suite.
#
# Usage:  scripts/verify.sh [--differential | --examples] [extra pytest args]
#
# This is the single command builders gate on (see ROADMAP.md).  The
# compileall step catches syntax/import-level breakage in seconds before
# the multi-minute pytest run starts; extra arguments are forwarded to
# pytest (e.g. `scripts/verify.sh tests/` to skip the benchmark suite).
#
#   --differential   run only the cross-backend differential suite
#                    (tests/differential/): bit-identity of all three
#                    storage backends (dict / csr / sparse_csr) through
#                    sequential SBP, DC-SBP and EDiSt, golden-file
#                    regression partitions, and old→new API equivalence.
#
#   --examples       run every examples/*.py in scaled-down smoke mode
#                    (REPRO_EXAMPLES_SMOKE=1), so breakage of the public
#                    API surface the examples exercise is caught by the
#                    tier-1 gate.
#
# Performance is not gated here: bench/ is the performance gate
# (python3 bench/run.py, then python3 bench/compare.py parent.jsonl
# change.jsonl; see bench/README.md).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: python -m compileall src =="
python -m compileall -q src

if [[ "${1:-}" == "--differential" ]]; then
    shift
    echo "== differential: python -m pytest -x -q tests/differential =="
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q tests/differential "$@"
    exit 0
fi

if [[ "${1:-}" == "--examples" ]]; then
    shift
    for example in examples/*.py; do
        echo "== example (smoke): python ${example} =="
        REPRO_EXAMPLES_SMOKE=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python "$example"
    done
    echo "== all examples passed =="
    exit 0
fi

echo "== tests: python -m pytest -x -q =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q "$@"
