// Named counters/gauges dumped as JSON alongside bench tables.
//
// Components expose their internal state (per-link bytes & utilization,
// queue depths, HoL stalls, DDIO hit ratio, doorbell MMIO count) as one
// static table of rows per component: a row is a leaf name, a unit and a
// captureless read of the component. Registering a table stores one entry
// (instance, object, rows) and copies nothing per row; the registry reads
// every row at dump time, so a single WriteJson at the end of a run
// captures the final state of the whole component graph.
//
// Names have two parts: `instance` identifies the concrete object
// ("bf_srv.pcie0.down") and `leaf` the quantity ("wire_bytes"). Code
// carries leaf and unit only; what each leaf means lives in the catalog in
// DESIGN.md §6.2, and a test enumerates the registry of a real topology and
// fails on any (leaf, unit) pair the catalog does not list.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace snicsim {

class MetricsRegistry {
 public:
  // One dumped counter of a component of type T.
  template <typename T>
  struct Row {
    const char* leaf;
    const char* unit;
    double (*read)(const T&);
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers "<instance>.<leaf>" for every row, read from `obj` at dump
  // time; `obj` and `rows` must outlive the registry. Leaves carry no '.',
  // so a full name is taken exactly when its instance already has the leaf:
  // registering it again would make the dump ambiguous and aborts.
  template <typename T>
  void Register(std::string instance, const T& obj,
                std::type_identity_t<std::span<const Row<T>>> rows) {
    Add(Entry{std::move(instance), &obj, rows.data(), rows.size(), &LeafOf<T>, &UnitOf<T>,
              &ReadOf<T>});
  }

  // Calls f(instance, leaf, unit, value) for every registered row, in dump
  // order: tables in registration order (deterministic, because components
  // register in construction order), each table's rows in row order.
  template <typename F>
  void ForEachRow(F&& f) const {
    for (const Entry& e : entries_) {
      for (size_t i = 0; i < e.size; ++i) {
        f(std::string_view(e.instance), std::string_view(e.leaf(e.rows, i)),
          std::string_view(e.unit(e.rows, i)), e.read(e.obj, e.rows, i));
      }
    }
  }

  // JSON object keyed by full metric name, in ForEachRow order:
  //   {"bf_srv.pcie0.down.wire_bytes": {"value": 4096, "unit": "bytes"}, ...}
  // Numbers are integers when integral, else printed with %.6g.
  void WriteJson(std::ostream& os) const;
  bool WriteJsonFile(const std::string& path) const;

 private:
  // One registered table, its row type erased behind three accessors.
  struct Entry {
    std::string instance;
    const void* obj;   // the T
    const void* rows;  // const Row<T>[size]
    size_t size;
    const char* (*leaf)(const void* rows, size_t i);
    const char* (*unit)(const void* rows, size_t i);
    double (*read)(const void* obj, const void* rows, size_t i);
  };

  template <typename T>
  static const char* LeafOf(const void* rows, size_t i) {
    return static_cast<const Row<T>*>(rows)[i].leaf;
  }
  template <typename T>
  static const char* UnitOf(const void* rows, size_t i) {
    return static_cast<const Row<T>*>(rows)[i].unit;
  }
  template <typename T>
  static double ReadOf(const void* obj, const void* rows, size_t i) {
    return static_cast<const Row<T>*>(rows)[i].read(*static_cast<const T*>(obj));
  }

  void Add(Entry e);

  std::vector<Entry> entries_;
};

}  // namespace snicsim

#endif  // SRC_OBS_METRICS_H_
