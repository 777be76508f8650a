#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "src/common/log.h"
#include "src/obs/trace.h"

namespace snicsim {

namespace {

// Deterministic number formatting: exact integers stay integers, everything
// else goes through a fixed %.6g so two runs print identical bytes.
std::string FormatValue(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  return buf;
}

}  // namespace

void MetricsRegistry::Add(Entry e) {
  for (size_t i = 0; i < e.size; ++i) {
    const std::string_view leaf = e.leaf(e.rows, i);
    SNIC_CHECK(leaf.find('.') == std::string_view::npos);
    for (size_t j = 0; j < i; ++j) {
      SNIC_CHECK(leaf != e.leaf(e.rows, j));
    }
    for (const Entry& o : entries_) {
      if (o.instance == e.instance) {
        for (size_t j = 0; j < o.size; ++j) {
          SNIC_CHECK(leaf != o.leaf(o.rows, j));
        }
      }
    }
  }
  entries_.push_back(std::move(e));
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{";
  bool first = true;
  ForEachRow([&](std::string_view instance, std::string_view leaf, std::string_view unit,
                 double value) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  \"" << Tracer::JsonEscape(instance) << '.' << Tracer::JsonEscape(leaf)
       << "\": {\"value\": " << FormatValue(value) << ", \"unit\": \""
       << Tracer::JsonEscape(unit) << "\"}";
  });
  os << "\n}\n";
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) {
    return false;
  }
  WriteJson(f);
  return f.good();
}

}  // namespace snicsim
