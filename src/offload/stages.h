// SoC-resident processing-stage library for the multi-tenant offload
// pipelines (the Meili/Mulan shape: regex/filter scan, compression, and
// counting-sketch stages composed into per-tenant chains and scheduled onto
// pooled SoC cores — see src/offload/tenancy.h for the control plane).
//
// Each stage charges a per-item *service curve* — an affine cost in the
// item's current byte size, cost(b) = base + per_kb * b/1KiB — which is how
// the DPA characterization papers model per-item engine work. Stages also
// transform the item: a filter stage terminates a deterministic fraction of
// the stream (non-matching records die at the SoC and never cross back), a
// compression stage shrinks the payload that later stages and the return
// crossing must carry.
#ifndef SRC_OFFLOAD_STAGES_H_
#define SRC_OFFLOAD_STAGES_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/offload/pipeline.h"

namespace snicsim {
namespace offload {

enum class StageOp {
  kScan,      // regex/filter scan: passes a selectivity fraction of items
  kCompress,  // shrinks the payload to ratio * bytes
  kSketch,    // counting sketch / telemetry update; item unchanged
};

// Affine per-item service cost in the item's current size.
struct ServiceCurve {
  SimTime base = FromNanos(300);
  SimTime per_kb = FromNanos(500);

  SimTime Cost(uint32_t bytes) const {
    return base + static_cast<SimTime>(static_cast<double>(per_kb) *
                                       (static_cast<double>(bytes) / 1024.0));
  }
};

// One stage of a tenant pipeline. `placement` reuses the LineFS-style
// pipeline enum (src/offload/pipeline.h): consecutive stages on different
// sides ship the item across path ③ with all of that path's costs.
struct TenantStage {
  std::string name;
  StageOp op = StageOp::kSketch;
  ServiceCurve curve;
  Placement placement = Placement::kSoc;
  double selectivity = 1.0;  // kScan: fraction of items that survive
  double ratio = 1.0;        // kCompress: output bytes = ratio * input
};

// Deterministic per-item filter decision: a splitmix64 hash of
// (stream seed, item sequence number) compared against the selectivity.
// Hash-based instead of drawn from a shared Rng so that one tenant's stream
// never consumes another tenant's draws — the disjoint-pool metamorphic law
// (tests/offload/tenancy_property_test.cc) depends on this.
inline bool StagePasses(uint64_t seed, uint64_t item_seq, double selectivity) {
  if (selectivity >= 1.0) {
    return true;
  }
  uint64_t x = seed ^ (item_seq * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return u < selectivity;
}

// Applies a stage's transform to the item size (post-service).
inline uint32_t StageOutputBytes(const TenantStage& st, uint32_t bytes) {
  if (st.op != StageOp::kCompress || st.ratio >= 1.0) {
    return bytes;
  }
  const double out = st.ratio * static_cast<double>(bytes);
  return std::max<uint32_t>(1, static_cast<uint32_t>(out));
}

}  // namespace offload
}  // namespace snicsim

#endif  // SRC_OFFLOAD_STAGES_H_
