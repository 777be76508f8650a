// Registering a --metrics dump allocates per component, not per row: each
// component registers one static table, and the registry keeps one entry
// per table (its instance name and pointers to the object and the rows).
// Counted by this binary's operator new.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/topo/rack_kv.h"
#include "tests/common/allocation_counter.h"
#include "tests/obs/catalog_graph.h"

namespace snicsim {
namespace {

// The catalog test's component graph: 176 rows under 40 instances.
TEST(MetricsRegistration, CatalogGraphAllocatesPerInstance) {
  CatalogGraph graph;
  MetricsRegistry first;
  graph.Register(&first);
  MetricsRegistry reg;
  const uint64_t before = g_allocations;
  graph.Register(&reg);
  const uint64_t allocations = g_allocations - before;
  std::set<std::string, std::less<>> instances;
  reg.ForEachRow([&](std::string_view instance, auto&&...) { instances.emplace(instance); });
  ASSERT_GT(instances.size(), 30u);
  // 739 with libstdc++ 12 while every row stored a std::function and
  // copied four strings. Now an instance name longer than the
  // small-string buffer, plus the entry vector's doubling.
  EXPECT_LE(allocations, 2 * instances.size());
}

// The rack dump: 78 rows in one table under one instance.
TEST(MetricsRegistration, RackTableAllocatesOnce) {
  const RackKvResult rack;
  MetricsRegistry reg;
  const uint64_t before = g_allocations;
  rack.RegisterMetrics(&reg);
  // 276 with libstdc++ 12 while every row was registered on its own.
  EXPECT_LE(g_allocations - before, 4u);
}

}  // namespace
}  // namespace snicsim
