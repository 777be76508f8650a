#!/usr/bin/env bash
# Regenerates the committed golden files under tests/golden/data/ from the
# current simulator. Run this ONLY when a numeric change is intentional;
# review the resulting diff like any other code change.
#
# Every pin is a ctest that rewrites its golden when UPDATE_GOLDENS is set:
# the golden_* suites and bench pins, and the autoscaler test's flat-trace
# pin. A new pin registered under those names needs no edit here.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
mkdir -p tests/golden/data
(cd build && UPDATE_GOLDENS=1 ctest -R '^golden_|^governor_autoscaler_test$')
echo "goldens regenerated; review with: git diff tests/golden/data"
