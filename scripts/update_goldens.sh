#!/usr/bin/env bash
# Regenerates the committed golden files under tests/golden/data/ from the
# current simulator. Run this ONLY when a numeric change is intentional;
# review the resulting diff like any other code change.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build --target golden_golden_run_test golden_overload_golden_test \
  golden_tenants_golden_test golden_rack_golden_test golden_serving_golden_test \
  golden_trace_golden_test golden_bulk_golden_test governor_autoscaler_test \
  ablation_governor fig1_kvstore fig5_flows fig7_skew tab3_pcie_model \
  sec21_cpu_vs_nic sec_faults ablation_zipf fig4_throughput ablation_bf3 ablation_vendor
mkdir -p tests/golden/data
UPDATE_GOLDENS=1 ./build/tests/golden_golden_run_test
UPDATE_GOLDENS=1 ./build/tests/golden_overload_golden_test
UPDATE_GOLDENS=1 ./build/tests/golden_tenants_golden_test
UPDATE_GOLDENS=1 ./build/tests/golden_rack_golden_test
UPDATE_GOLDENS=1 ./build/tests/golden_serving_golden_test
UPDATE_GOLDENS=1 ./build/tests/golden_trace_golden_test
UPDATE_GOLDENS=1 ./build/tests/golden_bulk_golden_test
UPDATE_GOLDENS=1 ./build/tests/governor_autoscaler_test
(cd build && UPDATE_GOLDENS=1 ctest -R '^golden_bench_')
echo "goldens regenerated; review with: git diff tests/golden/data"
