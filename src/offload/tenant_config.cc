#include "src/offload/tenant_config.h"

#include <cctype>

#include "src/common/spec.h"

namespace snicsim {
namespace offload {

std::vector<TenantStage> DefaultStages(TenantKind kind) {
  switch (kind) {
    case TenantKind::kKv:
      // Per-request telemetry sketch riding next to the KV serving path.
      return {TenantStage{"kv_sketch", StageOp::kSketch,
                          ServiceCurve{FromNanos(120), 0}, Placement::kSoc}};
    case TenantKind::kFilter:
      // Host-originated records scanned on the SoC; ~35% match and cross
      // back, the rest die at the NIC (the pushdown win).
      return {TenantStage{"scan", StageOp::kScan,
                          ServiceCurve{FromNanos(300), FromNanos(600)},
                          Placement::kSoc, /*selectivity=*/0.35}};
    case TenantKind::kCompress:
      // Host-originated payloads compressed on the SoC; the return crossing
      // carries only ratio * bytes.
      return {TenantStage{"compress", StageOp::kCompress,
                          ServiceCurve{FromNanos(500), FromNanos(900)},
                          Placement::kSoc, /*selectivity=*/1.0,
                          /*ratio=*/0.45}};
    case TenantKind::kSketch:
      // SoC-resident telemetry: items are born and die on the SoC, no
      // path-3 crossings at all.
      return {TenantStage{"sketch", StageOp::kSketch,
                          ServiceCurve{FromNanos(250), FromNanos(100)},
                          Placement::kSoc}};
  }
  return {};
}

Placement EntryPlacement(const TenantSpec& spec) {
  switch (spec.kind) {
    case TenantKind::kFilter:
    case TenantKind::kCompress:
      return Placement::kHost;
    case TenantKind::kSketch:
      return Placement::kSoc;
    case TenantKind::kKv: {
      const auto chain =
          spec.stages.empty() ? DefaultStages(spec.kind) : spec.stages;
      return chain.empty() ? Placement::kSoc : chain.front().placement;
    }
  }
  return Placement::kSoc;
}

namespace {

bool ParseKind(const std::string& s, TenantKind* out) {
  if (s == "kv") {
    *out = TenantKind::kKv;
  } else if (s == "filter") {
    *out = TenantKind::kFilter;
  } else if (s == "compress") {
    *out = TenantKind::kCompress;
  } else if (s == "sketch") {
    *out = TenantKind::kSketch;
  } else {
    return false;
  }
  return true;
}

bool ValidId(const std::string& id) {
  if (id.empty()) {
    return false;
  }
  for (char c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-' &&
        c != '.') {
      return false;
    }
  }
  return true;
}

// Structural checks shared by both grammar forms.
bool Validate(TenantSetConfig* cfg, std::string* error) {
  for (int c : cfg->pools) {
    if (c < 1) {
      *error = "pool core counts must be >= 1";
      return false;
    }
  }
  if (cfg->host_cores < 1) {
    *error = "host_cores must be >= 1";
    return false;
  }
  if (cfg->slo_budget < 0.0 || cfg->slo_budget > 1.0) {
    *error = "budget not in [0, 1]";
    return false;
  }
  if (cfg->tenants.empty()) {
    return true;
  }
  if (cfg->pools.empty()) {
    cfg->pools = {2};  // one shared 2-core pool unless declared
  }
  for (size_t i = 0; i < cfg->tenants.size(); ++i) {
    const TenantSpec& t = cfg->tenants[i];
    if (!ValidId(t.id)) {
      *error = "tenant id '" + t.id + "' must be non-empty [A-Za-z0-9._-]";
      return false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (cfg->tenants[j].id == t.id) {
        *error = "duplicate tenant id '" + t.id + "'";
        return false;
      }
    }
    if (t.weight < 1) {
      *error = "tenant '" + t.id + "': weight must be >= 1";
      return false;
    }
    if (t.mops < 0.0 || t.cap_mops < 0.0 || t.slo_us < 0.0) {
      *error = "tenant '" + t.id + "': rates and SLO must be >= 0";
      return false;
    }
    // The SLO and the open-loop inter-arrival gap become SimTime.
    SimTime as_time = 0;
    if (!spec::MicrosToTime(t.slo_us, &as_time) ||
        (t.mops > 0.0 && !spec::MicrosToTime(1.0 / t.mops, &as_time))) {
      *error = "tenant '" + t.id + "': SLO or 1/MOPS overflows the simulated clock";
      return false;
    }
    if (t.item_bytes < 1) {
      *error = "tenant '" + t.id + "': bytes must be >= 1";
      return false;
    }
    if (t.pool < 0 || t.pool >= static_cast<int>(cfg->pools.size())) {
      *error = "tenant '" + t.id + "': pool " + std::to_string(t.pool) +
               " out of range (have " + std::to_string(cfg->pools.size()) +
               " pools)";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string TenantSetConfig::Serialize() const {
  if (empty()) {
    return "";
  }
  std::string out = "cores=";
  for (size_t i = 0; i < pools.size(); ++i) {
    if (i > 0) {
      out.push_back(':');
    }
    out += std::to_string(pools[i]);
  }
  out += ",host_cores=" + std::to_string(host_cores);
  out += ",seed=" + std::to_string(seed);
  out += ",budget=" + FmtDouble(slo_budget);
  for (const TenantSpec& t : tenants) {
    out += ",tenant=" + t.id + ":" + TenantKindName(t.kind) + ":" +
           std::to_string(t.weight) + ":" + FmtDouble(t.mops) + ":" +
           std::to_string(t.item_bytes) + ":" + FmtDouble(t.slo_us) + ":" +
           FmtDouble(t.cap_mops) + ":" + std::to_string(t.pool);
  }
  return out;
}

bool ParseTenantSet(const std::string& text, TenantSetConfig* out, std::string* error) {
  *out = TenantSetConfig();
  error->clear();
  const auto tenant = [out](spec::Value& v) {
    TenantSpec t;
    std::string kind;
    if (!v.ReadRecord({{"id", &t.id},
                       {"kind", &kind},
                       {"weight", &t.weight},
                       {"mops", &t.mops},
                       {"bytes", &t.item_bytes},
                       {"slo_us", &t.slo_us},
                       {"cap_mops", &t.cap_mops},
                       {"pool", &t.pool}},
                      6)) {
      return false;
    }
    if (!ParseKind(kind, &t.kind)) {
      return v.Fail("unknown tenant kind '" + kind + "' (want kv|filter|compress|sketch)");
    }
    out->tenants.push_back(t);
    return true;
  };
  const spec::Grammar grammar{"tenant",
                              "tenant-set",
                              {spec::List("cores", &out->pools),
                               spec::Scalar("host_cores", &out->host_cores),
                               spec::Scalar("seed", &out->seed),
                               spec::Scalar("budget", &out->slo_budget),
                               spec::Records("tenant", "tenants", tenant)}};
  return spec::Parse(text, grammar, error) && Validate(out, error);
}

TenantSetConfig TenantsFlag(Flags& flags) {
  return spec::ParseFlag<TenantSetConfig>(
      flags, "tenants",
      "tenant set: cores=C[:C...],host_cores=N,seed=S,budget=F,"
      "tenant=ID:KIND:WEIGHT:MOPS:BYTES:SLO_US[:CAP_MOPS[:POOL]] "
      "(KIND: kv|filter|compress|sketch), or @file.json",
      ParseTenantSet);
}

}  // namespace offload
}  // namespace snicsim
