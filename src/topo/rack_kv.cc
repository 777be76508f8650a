// RunRackKv: builds the rack's domains, runs them to drain, and folds every
// domain's counters into one RackKvResult through the counter declaration
// in rack_kv.h. The request planes live in rack_routing.cc,
// rack_serving.cc, rack_membership.cc and rack_integrity.cc.
#include "src/topo/rack_kv.h"

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/spec.h"
#include "src/obs/metrics.h"
#include "src/topo/rack_kv_internal.h"
#include "src/workload/client.h"

namespace snicsim {

using rackkv::ApplyCorruption;
using rackkv::EpochTick;
using rackkv::IntegrityStore;
using rackkv::IssueNew;
using rackkv::KvDomain;
using rackkv::RackKv;
using rackkv::ServerView;

namespace {

// Copies what the serving stack and the fleet count on their own into the
// domain's counters, once, after drain.
void Harvest(KvDomain& dom) {
  RackKvResult& c = dom.ctr;
  const kv::ServingExecutor& exec = dom.stack.exec;
  c.host_gets = exec.host_gets();
  c.soc_gets = exec.soc_gets();
  c.soc_hits = exec.soc_hits();
  c.soc_misses = exec.soc_misses();
  c.path3_bytes = exec.path3_bytes();
  c.crash_drops = exec.crash_drops();
  c.rewarm_misses = exec.rewarm_misses();
  const governor::AdaptiveGovernor& gov = *dom.stack.gov;
  c.routed_host = gov.routed(governor::kPathHost);
  c.routed_soc = gov.routed(governor::kPathSoc);
  c.hol_gated = gov.hol_gated();
  c.budget_spills = gov.budget_spills();
  c.explored = gov.explored();
  c.gov_draws = gov.draws();
  c.breaker_denied = gov.breaker_denied();
  if (dom.stack.resil != nullptr) {
    c.shed_codel = dom.stack.resil->shed_codel();
    c.shed_bucket = dom.stack.resil->shed_bucket();
    c.resil_draws = dom.stack.resil->draws();
  }
  c.fleet_draws = dom.fleet->draws();
  c.peak_inflight = dom.fleet->peak_inflight();
  c.resident_client_bytes = dom.fleet->resident_state_bytes() +
                            dom.ops.capacity() * sizeof(rackkv::HomeOp) +
                            dom.serves.capacity() * sizeof(rackkv::ServeCtx) +
                            dom.reps.capacity() * sizeof(rackkv::RepOp) +
                            dom.migs.capacity() * sizeof(rackkv::MigOp) +
                            dom.repairs.capacity() * sizeof(rackkv::RepairOp);
  // Every domain counts, dead ones included — a lost server keeps its bad
  // values, and counting them is what closes the corruption ledger under
  // permloss+corrupt.
  if (dom.integ != nullptr) {
    c.corrupt_remaining = dom.integ->corrupt_count;
  }
}

// kOnce rows are set by RunRackKv after the merge; kEarliest rows are times.
template <typename T>
void MergeCounter(RackMerge rule, T* out, T v) {
  if (rule == RackMerge::kSum) {
    *out += v;
  } else if (rule == RackMerge::kMax) {
    *out = std::max(*out, v);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (rule == RackMerge::kEarliest && v >= 0 && (*out < 0 || v < *out)) {
      *out = v;
    }
  }
}

void AddSeries(std::vector<uint64_t>* out, const std::vector<uint64_t>& v) {
  if (out->size() < v.size()) {
    out->resize(v.size(), 0);
  }
  for (size_t i = 0; i < v.size(); ++i) {
    (*out)[i] += v[i];
  }
}

}  // namespace

std::string RackKvResult::Fingerprint() const {
  std::string s = "rackkv|";
  ForEachRackCounter([&](const RackCounterInfo& c, auto field) {
    if (c.fingerprinted) {
      AppendCounter(&s, this->*field);
    }
  });
  AppendCounter(&s, server_completed);
  AppendU(&s, completed_by_epoch.size());
  AppendCounter(&s, completed_by_epoch);
  return s;
}

std::vector<std::string> RackKvResult::LedgerBreaks() const {
  std::vector<std::string> out;
  const auto n = [](uint64_t v) { return std::to_string(v); };
  if (generated != completed + failed + shed) {
    out.push_back("generated " + n(generated) + " != completed " + n(completed) + " + failed " +
                  n(failed) + " + shed " + n(shed));
  }
  if (repl_pushed != repl_acked + repl_failed) {
    out.push_back("repl_pushed " + n(repl_pushed) + " != repl_acked " + n(repl_acked) +
                  " + repl_failed " + n(repl_failed));
  }
  if (ranges_started != ranges_completed + ranges_failed) {
    out.push_back("ranges_started " + n(ranges_started) + " != ranges_completed " +
                  n(ranges_completed) + " + ranges_failed " + n(ranges_failed));
  }
  if (keys_migrated != keys_installed) {
    out.push_back("keys_migrated " + n(keys_migrated) + " != keys_installed " +
                  n(keys_installed));
  }
  if (corrupted_keys + corrupt_propagated !=
      repaired_read + repaired_scrub + repaired_write + corrupt_remaining) {
    out.push_back("corrupted_keys " + n(corrupted_keys) + " + corrupt_propagated " +
                  n(corrupt_propagated) + " != repaired_read " + n(repaired_read) +
                  " + repaired_scrub " + n(repaired_scrub) + " + repaired_write " +
                  n(repaired_write) + " + corrupt_remaining " + n(corrupt_remaining));
  }
  return out;
}

void RackKvResult::RegisterMetrics(MetricsRegistry* reg) const {
  reg->Register("rack", *this, kRackMetricRows);
}

RackKvResult RunRackKv(const RackKvParams& params) {
  SNIC_CHECK_GE(params.servers, 2);
  SNIC_CHECK_GT(params.users, 0u);
  SNIC_CHECK_GT(params.think_mean_us, 0.0);
  SNIC_CHECK_GT(params.rack_link_latency, 0);
  SNIC_CHECK_GT(params.request_timeout, 0);
  SNIC_CHECK_GT(params.max_attempts, 0);
  SNIC_CHECK_GT(params.window, 0);
  SNIC_CHECK_EQ(params.mix.size(), params.layout.class_bytes.size());
  // ServeMsg / PushMsg field widths.
  SNIC_CHECK_LE(params.servers, 0xffff);
  SNIC_CHECK_LE(params.layout.class_bytes.size(), 0xffu);
  params.layout.Validate();
  if (params.membership.enabled) {
    // Removal keeps >= 2 ring members (shard.h asserts per removal); 64
    // bits bound the live mask.
    SNIC_CHECK_GE(params.servers, 3);
    SNIC_CHECK_LE(params.servers, 63);
    SNIC_CHECK_GE(params.replicas, 2);
    SNIC_CHECK_GE(params.membership.permloss_epochs, 1);
    SNIC_CHECK_GE(params.membership.migrate_batch, 1);
  }

  ParallelSimulator psim(params.servers, params.rack_link_latency,
                         params.sim_threads);
  const HashRing ring(params.servers, /*vnodes_per_server=*/64, params.seed);
  const ZipfDist zipf(params.layout.keys, params.zipf_theta);
  // The rack population, split server -> class by largest remainder so
  // every jobs/sim_threads level sees identical per-bucket populations.
  const std::vector<uint64_t> per_server = AggregateFleet::Partition(
      params.users, std::vector<double>(static_cast<size_t>(params.servers), 1.0));
  // The repair plane's reserved slice of the intra-machine path-③ budget.
  const double migration_gbps =
      params.membership.migration_gbps > 0.0
          ? params.membership.migration_gbps
          : 0.25 * SafePath3BudgetGbps(params.testbed);
  // Gbps -> bytes/us (1 Gbps == 125 B/us).
  const double mig_rate_bpus = migration_gbps * 125.0;
  // The integrity store exists iff something can dirty or verify it.
  const bool want_integrity =
      !params.faults.corrupts.empty() ||
      (params.membership.enabled && params.membership.scrub_keys_per_epoch > 0);

  RackKv rack;
  rack.psim = &psim;
  rack.ring = &ring;
  rack.zipf = &zipf;
  rack.doms.reserve(static_cast<size_t>(params.servers));
  const ClientParams client_params;  // governor latency priors only
  for (int d = 0; d < params.servers; ++d) {
    const kv::ServingConfig serving =
        kv::ServingConfig::FromTestbed(params.testbed, params.layout);
    auto dom = std::make_unique<KvDomain>(rack, d, params, serving);
    governor::MetricDelta::Sampler repair_path3_bytes;
    if (params.membership.enabled) {
      // The governor's path-③ budget gate samples migration traffic: repair
      // bytes spend the same SafePath3BudgetGbps serving misses do
      // (DESIGN.md §16).
      KvDomain* dp = dom.get();
      repair_path3_bytes = [dp] { return static_cast<double>(dp->ctr.repair_path3_bytes); };
      dom->mring = std::make_unique<HashRing>(ring);
      dom->live_mask = (params.servers >= 64)
                           ? ~0ull
                           : ((1ull << params.servers) - 1);
      dom->mig_rate_bpus = mig_rate_bpus;
    }
    if (want_integrity) {
      dom->integ = std::make_unique<IntegrityStore>();
      dom->integ->corrupt.assign(static_cast<size_t>(params.layout.keys), 0);
      dom->integ->repairing.assign(static_cast<size_t>(params.layout.keys), 0);
    }
    governor::GovernorConfig gcfg;
    gcfg.seed = params.seed ^ (0x9e3779b97f4a7c15ull * (d + 1));
    gcfg.epoch = params.governor_epoch;
    dom->stack.AttachGovernor(gcfg, client_params, std::move(repair_path3_bytes));
    AggregateFleetParams fp;
    fp.users_per_class =
        AggregateFleet::Partition(per_server[static_cast<size_t>(d)], params.mix);
    fp.think_mean_us = params.think_mean_us;
    fp.seed = params.seed ^ (0xd1b54a32d192ed03ull * (d + 1));
    fp.materialize = params.materialize_fleet;
    dom->fleet = std::make_unique<AggregateFleet>(dom->stack.sim, std::move(fp));
    dom->fleet->SetTrace(dom->stack.trace.get());
    dom->views.assign(static_cast<size_t>(params.servers), ServerView{});
    dom->ctr.server_completed.assign(static_cast<size_t>(params.servers), 0);
    rack.doms.push_back(std::move(dom));
  }

  // Opening lineup, in domain order: the fleet's candidate chains, the
  // failover epoch tick, and the quiesce edge that stops both.
  for (const auto& domp : rack.doms) {
    KvDomain* dp = domp.get();
    AggregateFleet* fleet = dp->fleet.get();
    dp->stack.sim->At(0, [dp, fleet] {
      fleet->Start([dp](int cls, uint64_t user) { IssueNew(*dp, cls, user); });
      EpochTick(*dp);
    });
    // corrupt= events addressed to this server (either endpoint or the
    // whole-server prefix) fire as draw-free value flips at `at`.
    const std::string& host_domain = dp->stack.bf->host_ep()->params().name;
    const std::string& soc_domain = dp->stack.bf->soc_ep()->params().name;
    for (const fault::CorruptEvent& ev : params.faults.corrupts) {
      if (!fault::DomainMatches(ev.domain, host_domain) &&
          !fault::DomainMatches(ev.domain, soc_domain)) {
        continue;
      }
      const double frac = ev.fraction;
      const uint64_t salt = params.faults.seed ^ Fnv1a(soc_domain) ^
                            SplitMix64(static_cast<uint64_t>(ev.at));
      dp->stack.sim->At(ev.at, [dp, frac, salt] { ApplyCorruption(*dp, frac, salt); });
    }
    dp->stack.sim->At(params.window, [fleet, dp] {
      fleet->Stop();
      dp->stack.StopIssuing();
    });
  }
  psim.Run();

  RackKvResult out;
  uint64_t digest = psim.merge_digest();
  Histogram latency;
  for (const auto& domp : rack.doms) {
    KvDomain& dom = *domp;
    // Every record resolved before quiesce: the O(in-flight) claim and the
    // ledger both depend on a fully drained rack.
    SNIC_CHECK_EQ(dom.ops.live(), 0u);
    SNIC_CHECK_EQ(dom.serves.live(), 0u);
    SNIC_CHECK_EQ(dom.reps.live(), 0u);
    SNIC_CHECK_EQ(dom.migs.live(), 0u);
    SNIC_CHECK_EQ(dom.stack.bf->nic().live_records(), 0u);
    SNIC_CHECK_EQ(dom.repairs.live(), 0u);
    Harvest(dom);
    const RackKvResult& c = dom.ctr;
    ForEachRackCounter([&](const RackCounterInfo& info, auto field) {
      MergeCounter(info.merge, &(out.*field), c.*field);
    });
    AddSeries(&out.server_completed, c.server_completed);
    AddSeries(&out.completed_by_epoch, c.completed_by_epoch);
    latency.Merge(dom.latency);
    // The per-domain replay digest: an explicit list, so its byte order
    // stays fixed whatever the counter declaration does.
    for (uint64_t v :
         {c.generated, c.completed, c.failed, c.shed, c.timeouts, c.nacks,
          c.stale_replies, c.crash_refused, c.serve_timeouts, c.writes,
          c.repl_acked, c.promotions, c.rehomed,
          c.server_completed[static_cast<size_t>(dom.id)], dom.fleet->draws(),
          dom.stack.gov->draws(), dom.stack.sim->processed(),
          static_cast<uint64_t>(dom.stack.sim->now()), c.removals, c.member_epoch,
          c.stale_epoch_bounces, c.ranges_completed, c.keys_migrated,
          c.keys_installed, c.scrub_detected, c.repaired_read,
          c.repaired_scrub, c.scan_forced}) {
      digest = FnvMix(digest, v);
    }
  }
  out.rounds = psim.rounds();
  out.merged = psim.merged();
  out.processed = psim.processed();
  out.digest = digest;
  out.p50_ps = latency.Percentile(50.0);
  out.p99_ps = latency.Percentile(99.0);
  out.max_ps = latency.max();

  if (!params.metrics_path.empty()) {
    MetricsRegistry dump;
    out.RegisterMetrics(&dump);
    SNIC_CHECK(dump.WriteJsonFile(params.metrics_path));
  }
  return out;
}

}  // namespace snicsim
