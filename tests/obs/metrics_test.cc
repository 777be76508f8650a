#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "src/governor/autoscaler.h"
#include "src/topo/rack_kv.h"
#include "tests/obs/catalog_graph.h"

namespace snicsim {
namespace {

// A component with two counters, for the registry's own tests.
struct Probe {
  double a = 0.0;
  double b = 0.0;
};

constexpr MetricsRegistry::Row<Probe> kProbeRows[] = {
    {"a", "count", [](const Probe& p) { return p.a; }},
    {"b", "us", [](const Probe& p) { return p.b; }},
};

std::string Dump(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.WriteJson(os);
  return os.str();
}

TEST(MetricsRegistry, RegistersAndSamplesAtDumpTime) {
  MetricsRegistry reg;
  Probe p{1.0, 0.0};
  reg.Register("nic", p, kProbeRows);
  p.a = 42.0;  // gauges sample live state: the dump must see the update
  const std::string dump = Dump(reg);
  EXPECT_NE(dump.find("\"nic.a\": {\"value\": 42, \"unit\": \"count\"}"), std::string::npos)
      << dump;
}

TEST(MetricsRegistry, RejectsDuplicateFullNames) {
  const Probe p;
  MetricsRegistry reg;
  reg.Register("a.b", p, kProbeRows);
  // Same leaf under a different instance is fine.
  reg.Register("a.d", p, kProbeRows);
  size_t rows = 0;
  reg.ForEachRow([&](auto&&...) { ++rows; });
  EXPECT_EQ(rows, 4u);
  // A name taken twice, by a second table or within one, is a wiring bug;
  // so is a leaf with a '.', which could spell another instance's name.
  EXPECT_DEATH(reg.Register("a.b", p, std::span(kProbeRows).last(1)), "CHECK failed");
  static constexpr MetricsRegistry::Row<Probe> kTwice[] = {
      {"c", "count", [](const Probe& q) { return q.a; }},
      {"c", "count", [](const Probe& q) { return q.b; }},
  };
  EXPECT_DEATH(reg.Register("e", p, kTwice), "CHECK failed");
  static constexpr MetricsRegistry::Row<Probe> kDotted[] = {
      {"d.b", "count", [](const Probe& q) { return q.a; }},
  };
  EXPECT_DEATH(reg.Register("a", p, kDotted), "CHECK failed");
}

TEST(MetricsRegistry, NonIntegralValuesUseCompactFloat) {
  MetricsRegistry reg;
  const Probe p{0.25, 0.0};
  reg.Register("link", p, kProbeRows);
  const std::string dump = Dump(reg);
  EXPECT_NE(dump.find("\"value\": 0.25"), std::string::npos) << dump;
}

TEST(MetricsRegistry, JsonIsDeterministicAndParsesAsObject) {
  static constexpr MetricsRegistry::Row<Probe> kQuoted[] = {
      {"y\"z", "us", [](const Probe& p) { return p.b; }},
  };
  const Probe p{1.0, 2.5};
  MetricsRegistry r1, r2;
  for (MetricsRegistry* reg : {&r1, &r2}) {
    reg->Register("a", p, kProbeRows);
    reg->Register("b", p, kQuoted);
  }
  EXPECT_EQ(Dump(r1), Dump(r2));
  // Escaped quote must survive in the key.
  EXPECT_NE(Dump(r1).find("b.y\\\"z"), std::string::npos);
}

// The catalog in DESIGN.md §6.2 and the dumped rows must agree both ways:
// every (leaf, unit) pair registered by a full topology or by the rack.*
// and scale.* result tables has a catalog row, every rack counter has its
// own rack-scale KV row, and every catalog row names a pair that one of
// those registers. Adding a metric without documenting it, or leaving the
// row of a deleted metric behind, fails here.
TEST(MetricsCatalog, EveryRegisteredLeafIsDocumented) {
  CatalogGraph graph;
  const RackKvResult rack;
  const governor::TraceRunResult scale;
  MetricsRegistry reg;
  graph.Register(&reg);
  rack.RegisterMetrics(&reg);
  scale.RegisterMetrics(&reg);

  std::ifstream design(std::string(SNICSIM_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(design.good()) << "DESIGN.md not found under " << SNICSIM_SOURCE_DIR;
  // Catalog rows read "| `leaf` | unit | registered by | meaning |".
  using Pair = std::pair<std::string, std::string>;
  std::set<Pair> catalog;
  std::set<Pair> rack_rows;
  bool in_catalog = false;
  for (std::string line; std::getline(design, line);) {
    if (line.starts_with("**Metric catalog.**")) {
      in_catalog = true;
    } else if (in_catalog && line.starts_with("| `")) {
      const size_t leaf_end = line.find('`', 3);
      const size_t unit_end = line.find(" | ", leaf_end + 4);
      ASSERT_NE(unit_end, std::string::npos) << line;
      const Pair row{line.substr(3, leaf_end - 3),
                     line.substr(leaf_end + 4, unit_end - leaf_end - 4)};
      catalog.insert(row);
      if (line.compare(unit_end + 3, 13, "rack-scale KV") == 0) {
        rack_rows.insert(row);
      }
    } else if (in_catalog && !catalog.empty() && !line.starts_with("|")) {
      break;
    }
  }
  ASSERT_GT(catalog.size(), 100u);

  std::set<Pair> registered;
  size_t rack_registered = 0;
  reg.ForEachRow([&](std::string_view instance, std::string_view leaf, std::string_view unit,
                     double) {
    const Pair row{std::string(leaf), std::string(unit)};
    registered.insert(row);
    EXPECT_FALSE(unit.empty()) << instance << "." << leaf << " has no unit";
    EXPECT_EQ(catalog.count(row), 1u)
        << instance << "." << leaf << " (" << unit
        << ") has no DESIGN.md catalog row '| `" << leaf << "` | " << unit << " |'";
    if (instance == "rack") {
      ++rack_registered;
      EXPECT_EQ(rack_rows.count(row), 1u)
          << "rack." << leaf << " needs its own catalog row '| `" << leaf << "` | " << unit
          << " | rack-scale KV'";
    }
  });
  EXPECT_GT(registered.size(), 100u);  // the graph is fully instrumented
  EXPECT_GT(rack_registered, 50u);
  for (const Pair& row : catalog) {
    EXPECT_EQ(registered.count(row), 1u)
        << "catalog row '| `" << row.first << "` | " << row.second
        << " |' names nothing an audited component registers";
  }
}

}  // namespace
}  // namespace snicsim
