// Reads the rows of a MetricsRegistry JSON dump (MetricsRegistry::WriteJson,
// src/obs/metrics.cc): one `  "name": {"value": v, "unit": "u"}` row per
// line, each but the last followed by a comma. Lines of any other shape
// (the braces) are skipped. Rows come back in file order, duplicates kept.
#ifndef TESTS_COMMON_METRICS_DUMP_H_
#define TESTS_COMMON_METRICS_DUMP_H_

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace snicsim {

struct MetricsDumpRow {
  std::string name;
  double value = 0.0;
  std::string unit;
};

inline std::vector<MetricsDumpRow> ReadMetricsDump(std::string_view dump) {
  constexpr std::string_view kStart = "  \"";
  constexpr std::string_view kValue = "\": {\"value\": ";
  constexpr std::string_view kUnit = ", \"unit\": \"";
  constexpr std::string_view kEnd = "\"}";
  std::vector<MetricsDumpRow> rows;
  while (!dump.empty()) {
    const size_t eol = std::min(dump.find('\n'), dump.size());
    std::string_view line = dump.substr(0, eol);
    dump.remove_prefix(std::min(eol + 1, dump.size()));
    if (line.ends_with(',')) {
      line.remove_suffix(1);
    }
    const size_t value = line.find(kValue);
    const size_t unit = line.find(kUnit);
    if (!line.starts_with(kStart) || !line.ends_with(kEnd) || value == std::string_view::npos ||
        unit == std::string_view::npos || unit < value) {
      continue;
    }
    const size_t value_at = value + kValue.size();
    const size_t unit_at = unit + kUnit.size();
    MetricsDumpRow& row = rows.emplace_back();
    row.name = line.substr(kStart.size(), value - kStart.size());
    row.value = std::strtod(std::string(line.substr(value_at, unit - value_at)).c_str(), nullptr);
    row.unit = line.substr(unit_at, line.size() - kEnd.size() - unit_at);
  }
  return rows;
}

}  // namespace snicsim

#endif  // TESTS_COMMON_METRICS_DUMP_H_
