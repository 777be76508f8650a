#include "src/offload/tenancy.h"

#include <utility>

#include "src/common/log.h"
#include "src/common/spec.h"
#include "src/nic/verb.h"

namespace snicsim {
namespace offload {

namespace {

// Per-tenant shedder parameters. The CoDel pair matches the serving plane's
// overload-bench settings so one mental model covers both; the bucket depth
// is small because tenant streams are steady open-loop, not bursty clients.
constexpr SimTime kCodelTarget = FromMicros(8);
constexpr SimTime kCodelInterval = FromMicros(20);
constexpr double kBucketDepth = 4.0;
// Tenants carry two value classes, alternating by item seq; class 0 is shed
// first when the tenant's own standing queue grows.
constexpr int kValueClasses = 2;

}  // namespace

std::string TenantResult::Fingerprint() const {
  std::string out = id;
  out.push_back('|');
  out += TenantKindName(kind);
  out.push_back('|');
  ForEachTenantCounter([&](const char*, auto field) { AppendCounter(&out, this->*field); });
  return out;
}

std::string TenantSetResult::Fingerprint() const {
  std::string out;
  for (const TenantResult& t : tenants) {
    out += t.Fingerprint();
    out.push_back(';');
  }
  return out;
}

TenantManager::TenantManager(Simulator* sim, BluefieldServer* server,
                             fault::FaultInjector* inj,
                             const TenantSetConfig& cfg)
    : sim_(sim), server_(server), inj_(inj), cfg_(cfg) {
  SNIC_CHECK(!cfg_.empty());
  host_pool_ = std::make_unique<MultiServer>(sim, cfg_.host_cores);
  // Pool membership in config order fixes each tenant's arbiter slot.
  std::vector<std::vector<int>> weights(cfg_.pools.size());
  for (const TenantSpec& spec : cfg_.tenants) {
    Tenant tn;
    tn.spec = spec;
    tn.chain = spec.stages.empty() ? DefaultStages(spec.kind) : spec.stages;
    SNIC_CHECK(!tn.chain.empty());
    tn.entry = EntryPlacement(spec);
    tn.hash_seed = cfg_.seed ^ Fnv1a(spec.id);
    tn.pool_local = static_cast<int>(weights[spec.pool].size());
    weights[spec.pool].push_back(spec.weight);
    tn.r.id = spec.id;
    tn.r.kind = spec.kind;
    tenants_.push_back(std::move(tn));
  }
  pools_.resize(cfg_.pools.size());
  for (size_t p = 0; p < cfg_.pools.size(); ++p) {
    if (!weights[p].empty()) {
      pools_[p] = std::make_unique<WeightedArbiter>(sim, cfg_.pools[p],
                                                    std::move(weights[p]));
    }
  }
}

void TenantManager::Start() {
  issuing_ = true;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    const TenantSpec& spec = tenants_[t].spec;
    if (spec.kind == TenantKind::kKv || spec.mops <= 0.0) {
      continue;  // kv tenants are fed by the serving path
    }
    sim_->In(FromMicros(1.0 / spec.mops),
             [this, t] { Arrive(static_cast<int>(t)); });
  }
}

void TenantManager::StopIssuing() { issuing_ = false; }

void TenantManager::SetPoolCores(int pool, int cores) {
  SNIC_CHECK_GE(pool, 0);
  SNIC_CHECK_LT(static_cast<size_t>(pool), pools_.size());
  SNIC_CHECK(pools_[static_cast<size_t>(pool)] != nullptr);
  pools_[static_cast<size_t>(pool)]->SetCores(cores);
}

void TenantManager::SetTenantWeight(int tenant, int weight) {
  SNIC_CHECK_GE(tenant, 0);
  SNIC_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  const Tenant& tn = tenants_[static_cast<size_t>(tenant)];
  pools_[static_cast<size_t>(tn.spec.pool)]->SetWeight(tn.pool_local, weight);
}

int TenantManager::PoolCores(int pool) const {
  SNIC_CHECK_GE(pool, 0);
  SNIC_CHECK_LT(static_cast<size_t>(pool), pools_.size());
  SNIC_CHECK(pools_[static_cast<size_t>(pool)] != nullptr);
  return pools_[static_cast<size_t>(pool)]->cores();
}

SimTime TenantManager::PoolBusy(int pool) const {
  SNIC_CHECK_GE(pool, 0);
  SNIC_CHECK_LT(static_cast<size_t>(pool), pools_.size());
  SNIC_CHECK(pools_[static_cast<size_t>(pool)] != nullptr);
  return pools_[static_cast<size_t>(pool)]->busy_total();
}

void TenantManager::Arrive(int t) {
  if (!issuing_) {
    return;
  }
  Tenant& tn = tenants_[static_cast<size_t>(t)];
  if (trace_ != nullptr) {
    const double bg = trace_->BgAt(sim_->now());
    if (bg <= 0.0) {
      // Paused phase: no item now; re-arm at the next segment boundary.
      // Past the trace end the boundary is behind us and the stream ends.
      const SimTime next = trace_->NextChangeAt(sim_->now());
      if (next > sim_->now()) {
        sim_->At(next, [this, t] { Arrive(t); });
      }
      return;
    }
    Inject(tn, sim_->now(), tn.spec.item_bytes);
    sim_->In(FromMicros(1.0 / (tn.spec.mops * bg)), [this, t] { Arrive(t); });
    return;
  }
  Inject(tn, sim_->now(), tn.spec.item_bytes);
  sim_->In(FromMicros(1.0 / tn.spec.mops), [this, t] { Arrive(t); });
}

bool TenantManager::Admit(Tenant& tn, uint64_t seq) {
  const SimTime now = sim_->now();
  // Per-tenant CoDel over the tenant's own head-of-line wait on its SoC
  // pool: a standing queue sheds the tenant's low value classes first.
  WeightedArbiter* pool = pools_[static_cast<size_t>(tn.spec.pool)].get();
  const int cls = static_cast<int>(seq % kValueClasses);
  const int level = tn.codel.Observe(pool->QueueDelay(tn.pool_local),
                                     kCodelTarget, kCodelInterval, now);
  if (cls < level) {
    ++tn.r.shed_codel;
    return false;
  }
  // Per-tenant admission cap: the isolation backstop.
  if (tn.spec.cap_mops > 0.0 &&
      !tn.bucket.TryTake(tn.spec.cap_mops, kBucketDepth, now)) {
    ++tn.r.shed_bucket;
    return false;
  }
  return true;
}

void TenantManager::Inject(Tenant& tn, SimTime born, uint32_t bytes) {
  ++tn.r.generated;
  const uint64_t seq = tn.seq++;
  if (!Admit(tn, seq)) {
    return;
  }
  ++tn.r.admitted;
  const int t = static_cast<int>(&tn - tenants_.data());
  RunStage(t, 0, tn.entry, bytes, born, seq);
}

void TenantManager::RunStage(int t, size_t idx, Placement loc, uint32_t bytes,
                             SimTime born, uint64_t seq) {
  Tenant& tn = tenants_[static_cast<size_t>(t)];
  if (idx == tn.chain.size()) {
    Finish(t, loc, bytes, born);
    return;
  }
  const TenantStage& st = tn.chain[idx];
  if (st.placement != loc) {
    Cross(t, loc, bytes, [this, t, idx, bytes, born, seq,
                          to = st.placement](SimTime) {
      RunStage(t, idx, to, bytes, born, seq);
    });
    return;
  }
  const SimTime now = sim_->now();
  const std::string& dom = DomainOf(loc);
  if (Dead(dom, now, now)) {
    ++tn.r.failed;
    return;
  }
  SimTime service = st.curve.Cost(bytes);
  if (inj_ != nullptr) {
    service += inj_->StallDelay(dom, now);
  }
  // Fires when the stage's core pool finishes the item; a crash anywhere in
  // the queue+service span kills it.
  auto complete = [this, t, idx, loc, bytes, seq, born, now](SimTime finish) {
    Tenant& done_tn = tenants_[static_cast<size_t>(t)];
    const TenantStage& done_st = done_tn.chain[idx];
    if (Dead(DomainOf(loc), now, finish)) {
      ++done_tn.r.failed;
      return;
    }
    if (done_st.op == StageOp::kScan &&
        !StagePasses(done_tn.hash_seed, seq, done_st.selectivity)) {
      // Non-matching record: dies at this side, never crosses back — the
      // pushdown win. Still a completion for the ledger.
      ++done_tn.r.filtered;
      Complete(done_tn, born, finish);
      return;
    }
    RunStage(t, idx + 1, loc, StageOutputBytes(done_st, bytes), born, seq);
  };
  if (loc == Placement::kSoc) {
    pools_[static_cast<size_t>(tn.spec.pool)]->Submit(tn.pool_local, service,
                                                      std::move(complete));
  } else {
    host_pool_->EnqueueAt(now, service,
                          [this, complete = std::move(complete)]() mutable {
                            complete(sim_->now());
                          });
  }
}

void TenantManager::Finish(int t, Placement loc, uint32_t bytes, SimTime born) {
  Tenant& tn = tenants_[static_cast<size_t>(t)];
  // Results are consumed at the tenant's entry side; ship the (possibly
  // compressed) item back if the chain left it on the other side.
  if (loc != tn.entry) {
    Cross(t, loc, bytes, [this, t, born](SimTime delivered) {
      Tenant& back = tenants_[static_cast<size_t>(t)];
      Complete(back, born, delivered);
    });
    return;
  }
  Complete(tn, born, sim_->now());
}

void TenantManager::Complete(Tenant& tn, SimTime born, SimTime done) {
  ++tn.r.completed;
  const SimTime lat = done - born;
  tn.lat.Record(lat);
  if (tn.spec.slo_us > 0.0 && tn.spec.kind != TenantKind::kKv) {
    ++tn.r.slo_checked;
    if (lat > FromMicros(tn.spec.slo_us)) {
      ++tn.r.violations;
    }
  }
}

void TenantManager::Cross(int t, Placement from, uint32_t bytes,
                          std::function<void(SimTime)> then) {
  Tenant& tn = tenants_[static_cast<size_t>(t)];
  const SimTime now = sim_->now();
  // A crossing touches both sides; either side being down kills the item.
  if (Dead(DomainOf(Placement::kHost), now, now) || Dead(DomainOf(Placement::kSoc), now, now)) {
    ++tn.r.failed;
    return;
  }
  ++tn.r.crossings;
  tn.r.path3_bytes += bytes;
  NicEndpoint* src =
      from == Placement::kHost ? server_->host_ep() : server_->soc_ep();
  NicEndpoint* dst =
      from == Placement::kHost ? server_->soc_ep() : server_->host_ep();
  server_->nic().ExecuteLocalOp(
      src, dst, Verb::kWrite, 0x7000'0000 + (ship_seq_++ % 8192) * 4096, bytes,
      [this, then = std::move(then)](SimTime delivered) mutable {
        sim_->At(std::max(delivered, sim_->now()),
                 [this, then = std::move(then)]() mutable {
                   then(sim_->now());
                 });
      });
}

bool TenantManager::Dead(const std::string& domain, SimTime from,
                         SimTime to) const {
  if (inj_ == nullptr) {
    return false;
  }
  return inj_->CrashedAt(domain, from) || inj_->CrashKills(domain, from, to);
}

void TenantManager::OnKvServed(int /*path*/, uint32_t bytes) {
  for (Tenant& tn : tenants_) {
    if (tn.spec.kind == TenantKind::kKv) {
      // The sketch item carries the served value's size, not item_bytes:
      // telemetry cost tracks real traffic.
      Inject(tn, sim_->now(), bytes);
    }
  }
}

void TenantManager::OnKvOutcome(SimTime latency, bool ok) {
  for (Tenant& tn : tenants_) {
    if (tn.spec.kind != TenantKind::kKv || tn.spec.slo_us <= 0.0) {
      continue;
    }
    ++tn.r.slo_checked;
    if (!ok || latency > FromMicros(tn.spec.slo_us)) {
      ++tn.r.violations;
    }
  }
}

uint64_t TenantManager::Total(uint64_t TenantResult::*field) const {
  uint64_t total = 0;
  for (const Tenant& tn : tenants_) {
    total += tn.r.*field;
  }
  return total;
}

void TenantManager::RegisterMetrics(MetricsRegistry* reg) {
  // Hand-ordered: serving_metrics.golden pins this order.
  using M = TenantManager;
  using R = TenantResult;
  static constexpr MetricsRegistry::Row<M> kRows[] = {
      {"generated", "count", [](const M& m) -> double { return m.Total(&R::generated); }},
      {"admitted", "count", [](const M& m) -> double { return m.Total(&R::admitted); }},
      {"completed", "count", [](const M& m) -> double { return m.Total(&R::completed); }},
      {"failed", "count", [](const M& m) -> double { return m.Total(&R::failed); }},
      {"shed_codel", "count", [](const M& m) -> double { return m.Total(&R::shed_codel); }},
      {"shed_bucket", "count", [](const M& m) -> double { return m.Total(&R::shed_bucket); }},
      {"filtered", "count", [](const M& m) -> double { return m.Total(&R::filtered); }},
      {"violations", "count", [](const M& m) -> double { return m.Total(&R::violations); }},
      {"crossings", "count", [](const M& m) -> double { return m.Total(&R::crossings); }},
      {"path3_bytes", "bytes", [](const M& m) -> double { return m.Total(&R::path3_bytes); }},
      {"grants", "count", [](const M& m) {
         double total = 0.0;
         for (const Tenant& tn : m.tenants_) {
           const auto& pool = m.pools_[static_cast<size_t>(tn.spec.pool)];
           if (pool) {
             total += static_cast<double>(pool->grants(tn.pool_local));
           }
         }
         return total;
       }},
  };
  reg->Register("tenant", *this, kRows);
}

TenantSetResult TenantManager::Results() const {
  TenantSetResult out;
  for (const Tenant& tn : tenants_) {
    TenantResult r = tn.r;
    r.shed = r.shed_codel + r.shed_bucket;
    const auto& pool = pools_[static_cast<size_t>(tn.spec.pool)];
    if (pool) {
      r.grants = pool->grants(tn.pool_local);
      r.busy_us = ToMicros(pool->busy(tn.pool_local));
    }
    r.p50_us = ToMicros(tn.lat.Percentile(50.0));
    r.p99_us = ToMicros(tn.lat.Percentile(99.0));
    out.tenants.push_back(std::move(r));
  }
  return out;
}

}  // namespace offload
}  // namespace snicsim
