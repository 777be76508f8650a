// Rack-scale sharded KV (ours): N full per-server stacks — SmartNIC model,
// adaptive governor, resilience, faults — as parallel-sim domains behind
// consistent-hash sharding with primary+follower replication and shard
// failover (src/topo/rack_kv.h). Four sections:
//
//   1. Scale sweep — servers x users x Zipf skew, closed-loop aggregate
//      fleets. Shows throughput scaling with servers/users and the skew
//      concentrating completions onto the hot key's primary shard.
//   2. Faulty rack — a drop + single-SoC-crash plan (override with
//      --faults) riding on the full stack: retries, watchdog nacks, and
//      replication keep both ledgers closed.
//   3. Whole-shard crash failover — one whole server (both endpoints,
//      addressed as the "rack.s1" fault-domain subtree) dies mid-window.
//      Every home collects failure evidence, promotes the follower within
//      a bounded number of governor epochs, and re-homes on recovery via
//      epoch probes.
//   4. Memory at 1M users — the same arrival rate from 1M and from 100k
//      users; the aggregate fleets keep request state O(in-flight), so the
//      instrumented resident-bytes counter barely moves while the user
//      count grows 10x.
//
// --check replays every cell serially (--jobs=1, --sim-threads=1) and
// asserts byte-identical fingerprints against the flag-selected grid point
// — CI byte-compares whole-output across (--jobs, --sim-threads) in
// {1,2,4}^2 on top — then asserts both conservation ledgers (generated ==
// completed + failed + shed; repl_pushed == repl_acked + repl_failed),
// user-count dominance of completions, skew dominance of shard imbalance,
// the failover bound (promote gap <= 2 governor epochs; re-home after
// restart), and the O(in-flight) memory bound at 1M users.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/spec.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/runtime/check.h"
#include "src/topo/rack_kv.h"
#include "src/workload/trace/trace.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

RackKvParams Base() {
  RackKvParams p;
  p.servers = 4;
  p.users = 10000;
  p.think_mean_us = 1000.0;
  p.zipf_theta = 0.9;
  p.layout.keys = 4096;
  p.layout.cached_keys = 1024;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.write_fraction = 0.1;
  p.window = FromMicros(400);
  p.seed = 42;
  return p;
}

// Section 1 axes. Users scale at fixed think time, so the offered load
// scales with the population (10k users -> ~10 req/us rack-wide).
const std::vector<int> kServers = {2, 4};
const std::vector<uint64_t> kUsers = {10000, 40000};
const std::vector<double> kThetas = {0.6, 0.99};

RackKvParams SweepPoint(int servers, uint64_t users, double theta) {
  RackKvParams p = Base();
  p.servers = servers;
  p.users = users;
  p.zipf_theta = theta;
  return p;
}

// Section 2: packet loss on every rack port plus one SoC crash-restart.
RackKvParams FaultPoint(const fault::FaultPlan& plan) {
  RackKvParams p = Base();
  if (!plan.empty()) {
    p.faults = plan;
  } else {
    p.faults.seed = 9;
    p.faults.drop_rate = 0.02;
    p.faults.crashes.push_back(
        {"rack.s1.soc", FromMicros(80), FromMicros(160), FromMicros(20)});
  }
  return p;
}

// Section 3: server 1 dies whole — the "rack.s1" subtree kills both its
// endpoint domains — and restarts at 200 us with a cold SoC cache.
RackKvParams FailoverPoint() {
  RackKvParams p = Base();
  p.faults.seed = 9;
  p.faults.crashes.push_back(
      {"rack.s1", FromMicros(80), FromMicros(200), FromMicros(20)});
  return p;
}

// Section 4: identical ~50 req/us offered load from two populations an
// order of magnitude apart.
RackKvParams MemPoint(uint64_t users) {
  RackKvParams p = Base();
  p.users = users;
  p.think_mean_us = static_cast<double>(users) / 50.0;
  p.zipf_theta = 0.99;
  p.window = FromMicros(200);
  return p;
}

std::vector<RackKvParams> AllCells(const fault::FaultPlan& plan,
                                   const trace::TracePlan& tplan, int sim_threads) {
  std::vector<RackKvParams> cells;
  for (int servers : kServers) {
    for (uint64_t users : kUsers) {
      for (double theta : kThetas) {
        cells.push_back(SweepPoint(servers, users, theta));
      }
    }
  }
  cells.push_back(FaultPoint(plan));
  cells.push_back(FailoverPoint());
  cells.push_back(MemPoint(1000000));
  cells.push_back(MemPoint(100000));
  // A --load-trace plan rides every cell: rate via the fleets' peak-rate
  // thinning, churn as a draw-free rank rotation, scan upgrades at issue.
  // An empty plan leaves every cell byte-identical to a trace-free build
  // (tests/topo/rack_kv_test.cc pins the flat-trace case too).
  for (RackKvParams& c : cells) {
    c.trace = tplan;
    c.sim_threads = sim_threads;
  }
  return cells;
}

// Largest per-server completion share relative to a perfectly even split —
// the skew-concentration observable for the dominance check.
double Imbalance(const RackKvResult& r) {
  uint64_t total = 0;
  uint64_t top = 0;
  for (uint64_t c : r.server_completed) {
    total += c;
    top = std::max(top, c);
  }
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(top) * static_cast<double>(r.server_completed.size()) /
         static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fault::FaultPlan plan = fault::FaultsFlag(flags);
  const trace::TracePlan tplan = trace::TraceFlag(flags);
  const bool check = flags.GetBool(
      "check", false,
      "assert determinism + ledgers + dominance + failover + memory bounds");
  const int jobs = runtime::JobsFlag(flags);
  const int sim_threads = runtime::SimThreadsFlag(flags);
  const std::string metrics = spec::OutputPathFlag(
      flags, "metrics", "write the rack.* metrics JSON of the 1M-user cell to this file");
  flags.Finish();

  std::vector<RackKvParams> cells = AllCells(plan, tplan, sim_threads);
  if (!metrics.empty()) {
    // The 1M-user point is the story-relevant dump: it carries the
    // O(in-flight) counters (rack.peak_inflight, rack.resident_client_bytes)
    // next to the full ledger.
    cells[cells.size() - 2].metrics_path = metrics;
  }
  const std::vector<RackKvResult> results = runtime::RunEach(cells, jobs, RunRackKv);
  const size_t n_sweep = kServers.size() * kUsers.size() * kThetas.size();
  const RackKvResult& fa = results[n_sweep];       // faulty rack
  const RackKvResult& fo = results[n_sweep + 1];   // whole-shard failover
  const RackKvResult& big = results[n_sweep + 2];  // 1M users
  const RackKvResult& sml = results[n_sweep + 3];  // 100k users, same rate

  // -- Section 1: servers x users x skew ----------------------------------
  std::printf("== Rack sweep: closed-loop sharded KV, aggregate fleets ==\n");
  Table t({"srv", "users", "theta", "gen", "done", "mreqs", "p50us", "p99us",
           "soc%", "repl_ack", "imbal"});
  size_t i = 0;
  for (int servers : kServers) {
    for (uint64_t users : kUsers) {
      for (double theta : kThetas) {
        const RackKvResult& r = results[i++];
        const double routed = static_cast<double>(r.routed_host + r.routed_soc);
        t.Row()
            .Add(servers)
            .Add(users)
            .Add(theta, 2)
            .Add(r.generated)
            .Add(r.completed)
            .Add(static_cast<double>(r.completed) / ToMicros(Base().window), 2)
            .Add(ToMicros(r.p50_ps), 1)
            .Add(ToMicros(r.p99_ps), 1)
            .Add(routed > 0 ? 100.0 * static_cast<double>(r.routed_soc) / routed
                            : 0.0,
                 1)
            .Add(r.repl_acked)
            .Add(Imbalance(r), 2);
      }
    }
  }
  t.Print(std::cout, flags.csv());
  std::printf("expected: completions scale with the user population, and "
              "high skew concentrates completions onto the hot key's primary "
              "shard (imbal column).\n");

  // -- Section 2: the faulty rack -----------------------------------------
  std::printf("\n== Faulty rack: drop + SoC crash plan on the full stack ==\n");
  Table ft({"gen", "done", "failed", "shed", "timeouts", "nacks", "stale",
            "wdog", "repl_ack", "repl_fail"});
  ft.Row()
      .Add(fa.generated)
      .Add(fa.completed)
      .Add(fa.failed)
      .Add(fa.shed)
      .Add(fa.timeouts)
      .Add(fa.nacks)
      .Add(fa.stale_replies)
      .Add(fa.serve_timeouts)
      .Add(fa.repl_acked)
      .Add(fa.repl_failed);
  ft.Print(std::cout, flags.csv());
  std::printf("expected: drops surface as watchdog nacks and home timeouts, "
              "retries absorb them, and both ledgers close exactly.\n");

  // -- Section 3: whole-shard crash failover ------------------------------
  std::printf("\n== Whole-shard crash failover (rack.s1 dies 80-200 us) ==\n");
  Table ot({"promotions", "gap_us", "rehomed", "rehome_at_us", "probes",
            "refused", "wdog", "done", "failed"});
  ot.Row()
      .Add(fo.promotions)
      .Add(fo.max_promote_gap_us, 1)
      .Add(fo.rehomed)
      .Add(fo.first_rehome_at_us, 1)
      .Add(fo.probes)
      .Add(fo.crash_refused)
      .Add(fo.serve_timeouts)
      .Add(fo.completed)
      .Add(fo.failed);
  ot.Print(std::cout, flags.csv());
  std::printf("expected: every home promotes the shard follower within 2 "
              "governor epochs of first evidence, traffic re-routes, and "
              "epoch probes re-home the server after its 200 us restart.\n");

  // -- Section 4: 1M users in O(in-flight) memory -------------------------
  std::printf("\n== Aggregate fleets: same rate, 10x the users ==\n");
  Table mt({"users", "gen", "done", "peak_inflight", "resident_KiB",
            "draws"});
  for (const RackKvResult* r : {&big, &sml}) {
    mt.Row()
        .Add(r == &big ? uint64_t{1000000} : uint64_t{100000})
        .Add(r->generated)
        .Add(r->completed)
        .Add(r->peak_inflight)
        .Add(static_cast<double>(r->resident_client_bytes) / 1024.0, 1)
        .Add(r->fleet_draws);
  }
  mt.Print(std::cout, flags.csv());
  std::printf("expected: peak in-flight and resident bytes track the offered "
              "load, not the population — 1M users cost the same memory as "
              "100k.\n");

  if (!check) {
    return 0;
  }

  // Byte-identical fingerprints against the serial grid corner; the CI rack
  // matrix byte-compares whole outputs across the (jobs, sim-threads) grid.
  runtime::Check c("determinism + ledgers + dominance + failover + memory", jobs);
  c.Replay(cells, results, RunRackKv, &RackKvResult::Fingerprint);

  for (size_t k = 0; k < results.size(); ++k) {
    const RackKvResult& r = results[k];
    const std::string label = "cell " + std::to_string(k);
    c.Ledger(label, r.LedgerBreaks());
    uint64_t served_ok = 0;
    for (uint64_t n : r.server_completed) {
      served_ok += n;
    }
    // Every home completion rode exactly one ok serve; ok serves whose reply
    // lost the race to a home timeout add the (stale) excess.
    c.FailAt(label, served_ok < r.completed,
             "servers settled %llu ok serves < %llu home completions",
             static_cast<unsigned long long>(served_ok),
             static_cast<unsigned long long>(r.completed));
    c.FailAt(label, r.repl_pushed != r.writes, "repl_pushed %llu != writes %llu",
             static_cast<unsigned long long>(r.repl_pushed),
             static_cast<unsigned long long>(r.writes));
    c.FailAt(label, r.completed > 0 && r.issued < r.generated,
             "issued %llu < generated %llu", static_cast<unsigned long long>(r.issued),
             static_cast<unsigned long long>(r.generated));
    c.FailAt(label, r.completed == 0, "nothing completed");
  }

  // Dominance in users: same think time, 4x the population => more load =>
  // more completions (the rack runs far below its serving capacity).
  for (size_t sv = 0; sv < kServers.size(); ++sv) {
    const size_t base = sv * kUsers.size() * kThetas.size();
    for (size_t u = 1; u < kUsers.size(); ++u) {
      for (size_t th = 0; th < kThetas.size(); ++th) {
        const RackKvResult& lo = results[base + th];
        const RackKvResult& hi = results[base + u * kThetas.size() + th];
        c.FailIf(hi.completed <= lo.completed,
                 "%llu users completed %llu <= %llu users' %llu (theta %.2f)",
                 static_cast<unsigned long long>(kUsers[u]),
                 static_cast<unsigned long long>(hi.completed),
                 static_cast<unsigned long long>(kUsers[0]),
                 static_cast<unsigned long long>(lo.completed), kThetas[th]);
      }
    }
  }

  // Dominance in skew: theta 0.99 concentrates completions onto the hot
  // key's primary harder than theta 0.6 (4-server cells).
  const size_t four = kUsers.size() * kThetas.size();  // first 4-server cell
  for (size_t u = 0; u < kUsers.size(); ++u) {
    const RackKvResult& flat = results[four + u * kThetas.size()];
    const RackKvResult& skew = results[four + u * kThetas.size() + 1];
    c.FailIf(Imbalance(skew) <= Imbalance(flat),
             "imbalance at theta %.2f (%.3f) not above theta %.2f (%.3f), users %llu",
             kThetas[1], Imbalance(skew), kThetas[0], Imbalance(flat),
             static_cast<unsigned long long>(kUsers[u]));
  }

  // Replication actually ran in every fault-free sweep cell.
  for (size_t k = 0; k < n_sweep; ++k) {
    c.FailIf(results[k].repl_acked == 0 || results[k].writes == 0,
             "cell %zu saw no replicated writes", k);
  }

  // Failover: evidence -> promotion within 2 governor epochs, and the
  // restarted server was re-homed by the probe machinery after 200 us.
  const double epochs2_us = 2.0 * ToMicros(Base().governor_epoch);
  if (!c.FailIf(fo.promotions == 0, "whole-shard crash never promoted a follower")) {
    c.FailIf(fo.max_promote_gap_us > epochs2_us,
             "promote gap %.1f us exceeds 2 governor epochs (%.1f us)",
             fo.max_promote_gap_us, epochs2_us);
  }
  if (!c.FailIf(fo.rehomed == 0, "restarted server never re-homed")) {
    c.FailIf(fo.first_rehome_at_us <= 200.0, "re-home at %.1f us, before the 200 us restart",
             fo.first_rehome_at_us);
  }
  c.FailIf(fo.crash_refused + fo.serve_timeouts == 0, "crash produced no failure evidence");

  // O(in-flight) memory at 1M users: the resident counter must track the
  // in-flight peak, not the population.
  c.FailIf(big.peak_inflight >= 1000000 / 100, "peak in-flight %llu is not << 1M users",
           static_cast<unsigned long long>(big.peak_inflight));
  c.FailIf(big.resident_client_bytes >= (1u << 20),
           "1M-user resident state %llu bytes >= 1 MiB",
           static_cast<unsigned long long>(big.resident_client_bytes));
  c.FailIf(big.resident_client_bytes >= 4 * sml.resident_client_bytes + (1u << 16),
           "resident state grew with the population (1M: %llu B, 100k: %llu B)",
           static_cast<unsigned long long>(big.resident_client_bytes),
           static_cast<unsigned long long>(sml.resident_client_bytes));

  return c.Finish("byte-identical across the grid corner, both ledgers closed, "
                  "user/skew dominance held, failover bounded by 2 epochs with "
                  "post-restart re-home, and 1M users fit in O(in-flight) memory");
}
