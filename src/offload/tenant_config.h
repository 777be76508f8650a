// Declarative tenant-set description for the multi-tenant offload control
// plane (src/offload/tenancy.h), plus its --tenants flag grammar.
//
// Built on the spec core shared with --faults and --load-trace
// (src/common/spec.h): an inline key=value form for quick sweeps and an
// @file.json form for checked-in scenarios, with unknown keys, malformed
// entries and out-of-range numbers failing loudly — a typo'd tenant spec
// must not silently run single-tenant.
//
//   inline:  cores=2:4,host_cores=2,seed=7,budget=0.05,
//            tenant=ID:KIND:WEIGHT:MOPS:BYTES:SLO_US[:CAP_MOPS[:POOL]],...
//   file:    --tenants=@set.json with
//            {"cores":[2,4],"host_cores":2,"seed":7,"budget":0.05,
//             "tenants":[{"id":"scan0","kind":"filter","weight":1,
//                         "mops":0.3,"bytes":2048,"slo_us":40,
//                         "cap_mops":0.25,"pool":0}]}
//
// KIND is one of kv | filter | compress | sketch. `cores` lists the SoC
// core count of each shared pool (':'-separated inline); every tenant names
// the pool it runs on. Duplicate tenant ids are rejected. An empty config
// (empty() == true) creates no tenant objects at all, so a tenant-free run
// is byte-identical to a pre-tenancy build.
#ifndef SRC_OFFLOAD_TENANT_CONFIG_H_
#define SRC_OFFLOAD_TENANT_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/offload/stages.h"

namespace snicsim {
namespace offload {

enum class TenantKind { kKv, kFilter, kCompress, kSketch };

constexpr const char* TenantKindName(TenantKind k) {
  switch (k) {
    case TenantKind::kKv:
      return "kv";
    case TenantKind::kFilter:
      return "filter";
    case TenantKind::kCompress:
      return "compress";
    case TenantKind::kSketch:
      return "sketch";
  }
  return "?";
}

struct TenantSpec {
  std::string id;
  TenantKind kind = TenantKind::kSketch;
  int weight = 1;          // WRR share on the SoC pool
  double mops = 0.0;       // offered open-loop rate (Mops); kv: ignored
  uint32_t item_bytes = 1024;
  double slo_us = 0.0;     // completion-latency SLO; 0 = unchecked
  double cap_mops = 0.0;   // per-tenant token-bucket admit cap; 0 = uncapped
  int pool = 0;            // index into TenantSetConfig::pools

  // Programmatic stage-chain override (not expressible in the grammar).
  // Empty means the kind's default chain (DefaultStages).
  std::vector<TenantStage> stages;
};

// The default pipeline each tenant kind runs (see DESIGN.md section 14).
std::vector<TenantStage> DefaultStages(TenantKind kind);

// Where a tenant's items originate: host-resident producers for filter and
// compression tenants (items must cross to the SoC stages and back),
// SoC-resident for sketch tenants, and the first stage's side for kv.
Placement EntryPlacement(const TenantSpec& spec);

struct TenantSetConfig {
  std::vector<int> pools;  // SoC cores per shared pool
  int host_cores = 1;      // host-side stage pool, shared by all tenants
  uint64_t seed = 1;       // per-item filter-hash stream seed
  double slo_budget = 0.05;  // tolerated SLO-violation fraction (isolation)
  std::vector<TenantSpec> tenants;

  bool empty() const { return tenants.empty(); }

  // Canonical inline-grammar form: Parse(Serialize(c)) == c and
  // Serialize is a fixed point, which the grammar round-trip test pins.
  std::string Serialize() const;
};

// Parses the inline or @file form into `out` (reset first). Returns false
// with a human-readable `error` on any malformed or unknown input.
bool ParseTenantSet(const std::string& spec, TenantSetConfig* out,
                    std::string* error);

// Registers --tenants and parses it; exits(2) with the parse error on
// malformed input, like fault::FaultsFlag.
TenantSetConfig TenantsFlag(Flags& flags);

}  // namespace offload
}  // namespace snicsim

#endif  // SRC_OFFLOAD_TENANT_CONFIG_H_
