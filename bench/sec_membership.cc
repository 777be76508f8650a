// Rack membership change & shard repair (ours): permanent server loss on
// the rack-scale sharded KV (src/topo/rack_kv.h) with the DESIGN.md §16
// membership plane enabled. Three sections:
//
//   1. Loss sweep — losses x migration-budget x load. A `permloss=` plan
//      kills one (or two) whole servers forever; every live home detects
//      the loss on its own probe clock, removes the server from its ring
//      copy, and the surviving replicas stream the lost key ranges to
//      their new owners over path ③, paced by a token bucket provisioned
//      out of SafePath3BudgetGbps and metered as repair_path3_bytes
//      against the governor's budget gate.
//   2. Corruption & scrubbing — a `corrupt=` plan flips a deterministic
//      fraction of one server's stored values; every serve verifies
//      (read repair) and the anti-entropy scrubber walks the shard at a
//      budgeted rate, healing from the surviving replica. No corrupt value
//      is ever served.
//   3. Loss + corruption combined — the CI grid cell: migration can
//      propagate a corrupt sole copy (counted, never silent) and the
//      corruption ledger still closes exactly.
//
// --check replays every cell serially (--jobs=1 --sim-threads=1) and
// asserts byte-identical fingerprints against the flag-selected grid
// point — CI byte-compares whole outputs across (--jobs, --sim-threads)
// in {1,2,4}^2 on top — then asserts: all four conservation ledgers, zero
// undetected corrupt serves everywhere, convergence (member_epoch ==
// losses; every live domain executed every removal), no lost keys under a
// single loss, repair completion within a budget-derived bound, repair
// finishing faster with a larger reserved budget, a goodput floor during
// migration, and full heal (corrupt_remaining == 0) in the scrub cell.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/model/bounds.h"
#include "src/runtime/check.h"
#include "src/topo/rack_kv.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

constexpr double kEpochUs = 50.0;
constexpr double kPermLossUs = 120.0;   // first server dies here
constexpr double kSecondLossUs = 500.0;  // second server (loss=2 cells)

RackKvParams Base() {
  RackKvParams p;
  p.servers = 5;
  p.users = 10000;
  p.think_mean_us = 1000.0;
  p.zipf_theta = 0.9;
  p.layout.keys = 2048;
  p.layout.cached_keys = 512;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.write_fraction = 0.1;
  p.replicas = 2;
  p.governor_epoch = FromMicros(kEpochUs);
  p.window = FromMicros(1000);
  p.seed = 42;
  p.membership.enabled = true;
  p.membership.permloss_epochs = 3;
  p.membership.migrate_batch = 64;
  return p;
}

// Section 1 axes.
const std::vector<int> kLosses = {1, 2};
const std::vector<double> kBudgetFracs = {0.1, 0.4};  // of SafePath3Budget
const std::vector<uint64_t> kUsers = {10000, 20000};

RackKvParams LossPoint(int losses, double frac, uint64_t users) {
  RackKvParams p = Base();
  p.users = users;
  p.faults.seed = 9;
  p.faults.permlosses.push_back({"rack.s1", FromMicros(kPermLossUs)});
  if (losses >= 2) {
    p.faults.permlosses.push_back({"rack.s3", FromMicros(kSecondLossUs)});
  }
  p.membership.migration_gbps = frac * SafePath3BudgetGbps(p.testbed);
  return p;
}

// Section 2: a quarter of rack.s2's stored values flip at 150 us; the
// scrubber walks 256 ranks per epoch per server.
RackKvParams CorruptPoint() {
  RackKvParams p = Base();
  p.faults.seed = 9;
  p.faults.corrupts.push_back({"rack.s2", FromMicros(150), 0.25});
  p.membership.scrub_keys_per_epoch = 256;
  p.membership.migration_gbps = 0.4 * SafePath3BudgetGbps(p.testbed);
  return p;
}

// Section 3: loss and corruption together (also the CI grid-compare cell).
RackKvParams CombinedPoint() {
  RackKvParams p = CorruptPoint();
  p.faults.permlosses.push_back({"rack.s1", FromMicros(kPermLossUs)});
  return p;
}

std::vector<RackKvParams> AllCells(int sim_threads) {
  std::vector<RackKvParams> cells;
  for (int losses : kLosses) {
    for (double frac : kBudgetFracs) {
      for (uint64_t users : kUsers) {
        cells.push_back(LossPoint(losses, frac, users));
      }
    }
  }
  cells.push_back(CorruptPoint());
  cells.push_back(CombinedPoint());
  for (RackKvParams& c : cells) {
    c.sim_threads = sim_threads;
  }
  return cells;
}

double RepairDurationUs(const RackKvResult& r) {
  if (r.membership_change_at_us < 0 || r.repair_done_at_us < 0) {
    return -1.0;
  }
  return r.repair_done_at_us - r.membership_change_at_us;
}

// Mean per-epoch home completions over [from, to) epoch indices.
double EpochGoodput(const RackKvResult& r, size_t from, size_t to) {
  to = std::min(to, r.completed_by_epoch.size());
  if (from >= to) {
    return 0.0;
  }
  uint64_t sum = 0;
  for (size_t i = from; i < to; ++i) {
    sum += r.completed_by_epoch[i];
  }
  return static_cast<double>(sum) / static_cast<double>(to - from);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool check = flags.GetBool(
      "check", false,
      "assert determinism + ledgers + convergence + repair/goodput bounds");
  const int jobs = runtime::JobsFlag(flags);
  const int sim_threads = runtime::SimThreadsFlag(flags);
  flags.Finish();

  const std::vector<RackKvParams> cells = AllCells(sim_threads);
  const std::vector<RackKvResult> results = runtime::RunEach(cells, jobs, RunRackKv);
  const size_t n_loss = kLosses.size() * kBudgetFracs.size() * kUsers.size();
  const RackKvResult& cr = results[n_loss];       // corruption + scrub
  const RackKvResult& cb = results[n_loss + 1];   // loss + corruption

  // -- Section 1: losses x migration budget x load ------------------------
  std::printf("== Permanent loss: detection, ring change, key migration ==\n");
  Table t({"loss", "budget", "users", "rm", "epoch", "bounce", "ranges",
           "mig_keys", "waits", "rep_KiB", "chg_us", "done_us", "done",
           "failed"});
  size_t i = 0;
  for (int losses : kLosses) {
    for (double frac : kBudgetFracs) {
      for (uint64_t users : kUsers) {
        const RackKvResult& r = results[i++];
        t.Row()
            .Add(losses)
            .Add(frac, 2)
            .Add(users)
            .Add(r.removals)
            .Add(r.member_epoch)
            .Add(r.stale_epoch_bounces)
            .Add(r.ranges_completed)
            .Add(r.keys_migrated)
            .Add(r.migration_waits)
            .Add(static_cast<double>(r.repair_path3_bytes) / 1024.0, 1)
            .Add(r.membership_change_at_us, 1)
            .Add(r.repair_done_at_us, 1)
            .Add(r.completed)
            .Add(r.failed);
      }
    }
  }
  t.Print(std::cout, flags.csv());
  std::printf("expected: every live home removes the dead server within "
              "permloss_epochs probe epochs, stale-epoch bounces converge "
              "the stragglers, and the migration finishes sooner with the "
              "larger reserved budget (done_us column).\n");

  // -- Section 2: corruption + scrubbing ----------------------------------
  std::printf("\n== Corruption: serve-path verify + anti-entropy scrub ==\n");
  Table ct({"flipped", "checks", "scrubbed", "scrub_hit", "read_hit",
            "heal_rd", "heal_scr", "heal_wr", "left", "undet"});
  ct.Row()
      .Add(cr.corrupted_keys)
      .Add(cr.integrity_checks)
      .Add(cr.scrub_checked)
      .Add(cr.scrub_detected)
      .Add(cr.read_repair_detected)
      .Add(cr.repaired_read)
      .Add(cr.repaired_scrub)
      .Add(cr.repaired_write)
      .Add(cr.corrupt_remaining)
      .Add(cr.undetected_corrupt_serves);
  ct.Print(std::cout, flags.csv());
  std::printf("expected: every flip is caught by a serve-path verify or the "
              "scrubber, healed from the surviving replica (or overwritten "
              "by a fresh write), and zero corrupt values are served.\n");

  // -- Section 3: loss + corruption combined ------------------------------
  std::printf("\n== Loss + corruption: repair planes compose ==\n");
  Table bt({"rm", "mig_keys", "flipped", "propagated", "healed", "left",
            "unavail", "done", "failed", "undet"});
  bt.Row()
      .Add(cb.removals)
      .Add(cb.keys_migrated)
      .Add(cb.corrupted_keys)
      .Add(cb.corrupt_propagated)
      .Add(cb.repaired_read + cb.repaired_scrub + cb.repaired_write)
      .Add(cb.corrupt_remaining)
      .Add(cb.repair_unavailable)
      .Add(cb.completed)
      .Add(cb.failed)
      .Add(cb.undetected_corrupt_serves);
  bt.Print(std::cout, flags.csv());
  std::printf("expected: migration may carry a corrupt sole copy to the new "
              "owner (counted as propagated, healed or surfaced later — "
              "never served), and the corruption ledger still closes.\n");

  if (!check) {
    return 0;
  }

  runtime::Check c("determinism + ledgers + convergence + repair bounds", jobs);
  c.Replay(cells, results, RunRackKv, &RackKvResult::Fingerprint);

  for (size_t k = 0; k < results.size(); ++k) {
    const RackKvResult& r = results[k];
    const std::string label = "cell " + std::to_string(k);
    c.Ledger(label, r.LedgerBreaks());
    c.FailAt(label, r.undetected_corrupt_serves != 0,
             "%llu corrupt values were served undetected",
             static_cast<unsigned long long>(r.undetected_corrupt_serves));
    c.FailAt(label, r.completed == 0, "nothing completed");
  }

  // Loss cells: convergence, detection latency, migration, repair bounds.
  i = 0;
  for (int losses : kLosses) {
    for (double frac : kBudgetFracs) {
      for (size_t u = 0; u < kUsers.size(); ++u, ++i) {
        const RackKvResult& r = results[i];
        const std::string label = "loss cell " + std::to_string(i);
        c.FailAt(label, r.member_epoch != static_cast<uint64_t>(losses),
                 "member_epoch %llu != losses %d",
                 static_cast<unsigned long long>(r.member_epoch), losses);
        // Every domain that survives to the end executed every removal
        // (the dead servers' own home sides adopt via bounces too).
        const uint64_t min_removals = static_cast<uint64_t>(
            (Base().servers - losses) * losses);
        c.FailAt(label, r.removals < min_removals,
                 "%llu removals < %llu (not every live home converged)",
                 static_cast<unsigned long long>(r.removals),
                 static_cast<unsigned long long>(min_removals));
        // Detection: first removal within promote + permloss_epochs probe
        // epochs of the loss (generous constant for the evidence phase).
        const double detect_by =
            kPermLossUs + (Base().membership.permloss_epochs + 8) * kEpochUs;
        c.FailAt(label,
                 r.membership_change_at_us < kPermLossUs ||
                     r.membership_change_at_us > detect_by,
                 "first removal at %.1f us outside (%.1f, %.1f]",
                 r.membership_change_at_us, kPermLossUs, detect_by);
        c.FailAt(label, r.keys_migrated == 0 || r.ranges_completed == 0, "no keys migrated");
        c.FailAt(label, r.stale_epoch_bounces == 0 || r.retry_replies == 0,
                 "no stale-epoch bounces — the dead server's home side never reconciled");
        if (losses == 1) {
          // A single loss always leaves the pair's other member: nothing
          // is lost and every range completes.
          c.FailAt(label, r.keys_lost != 0 || r.ranges_failed != 0,
                   "single loss lost %llu keys / %llu ranges",
                   static_cast<unsigned long long>(r.keys_lost),
                   static_cast<unsigned long long>(r.ranges_failed));
          // Budget-derived completion bound: the token bucket drains
          // repair_path3_bytes at migration_gbps; ack-clocked per-key
          // round trips add the epoch slack.
          const double rate_bpus =
              frac * SafePath3BudgetGbps(Base().testbed) * 125.0;
          const double bound_us =
              1.25 * static_cast<double>(r.repair_path3_bytes) / rate_bpus +
              10.0 * kEpochUs;
          const double dur = RepairDurationUs(r);
          c.FailAt(label, dur < 0 || dur > bound_us,
                   "repair took %.1f us, budget bound %.1f us", dur, bound_us);
        }
        // Goodput floor: during migration the rack keeps completing at a
        // sizable fraction of its pre-loss per-epoch rate (the migration
        // budget is carved out of path ③, not out of serving capacity).
        const size_t pre_end = static_cast<size_t>(kPermLossUs / kEpochUs);
        const size_t mig_from =
            static_cast<size_t>(r.membership_change_at_us / kEpochUs) + 1;
        const size_t win_end =
            static_cast<size_t>(ToMicros(Base().window) / kEpochUs);
        const double pre = EpochGoodput(r, 0, pre_end);
        const double during = EpochGoodput(r, mig_from, win_end);
        c.FailAt(label, during < 0.35 * pre,
                 "goodput during migration %.1f/epoch < 35%% of pre-loss %.1f/epoch",
                 during, pre);
      }
    }
  }

  // Budget scaling: for each (loss=1, users) pair, the larger reserved
  // budget finishes the same migration strictly sooner.
  for (size_t u = 0; u < kUsers.size(); ++u) {
    const RackKvResult& lo = results[u];                       // frac 0.1
    const RackKvResult& hi = results[kUsers.size() + u];       // frac 0.4
    c.FailIf(RepairDurationUs(hi) >= RepairDurationUs(lo),
             "repair with %.0f%% budget (%.1f us) not faster than %.0f%% (%.1f us), "
             "users %llu",
             100.0 * kBudgetFracs[1], RepairDurationUs(hi), 100.0 * kBudgetFracs[0],
             RepairDurationUs(lo), static_cast<unsigned long long>(kUsers[u]));
  }

  // Corruption cell: everything detected, everything healed.
  c.FailIf(cr.corrupted_keys == 0 || cr.scrub_detected == 0 ||
               cr.read_repair_detected == 0,
           "corruption cell detected nothing (flipped %llu, scrub %llu, read %llu)",
           static_cast<unsigned long long>(cr.corrupted_keys),
           static_cast<unsigned long long>(cr.scrub_detected),
           static_cast<unsigned long long>(cr.read_repair_detected));
  c.FailIf(cr.corrupt_remaining != 0, "%llu corrupt values survived the scrub cell",
           static_cast<unsigned long long>(cr.corrupt_remaining));
  c.FailIf(cr.removals != 0 || cr.keys_migrated != 0,
           "corruption-only cell ran membership changes");

  // Combined cell: the loss converged and corruption was never served.
  c.FailIf(cb.member_epoch != 1 || cb.keys_migrated == 0,
           "combined cell did not converge (epoch %llu, migrated %llu)",
           static_cast<unsigned long long>(cb.member_epoch),
           static_cast<unsigned long long>(cb.keys_migrated));

  return c.Finish("byte-identical across the grid corner, all ledgers closed, every "
                  "live home converged on the new ring, single-loss repair was "
                  "complete and within the budget bound, goodput held its floor "
                  "during migration, and no corrupt value was ever served");
}
