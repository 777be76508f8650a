// Overload protection & endpoint failover (ours): the resilience layer
// (src/resilience) raced on the KV serving workload, in three sections.
//
//   1. Overload sweep — an open-loop arrival-rate grid through the serving
//      knee, governor-routed, with a deadline on every get. The baseline
//      arm carries the deadline alone: past the knee its queues grow for
//      the whole window, completions land past the budget, and *goodput*
//      (in-deadline completions — what the meter records once deadlines
//      are on) collapses. The resilient arm adds CoDel-style admission
//      control fed by the serving pools' queue-delay signal: it sheds the
//      lowest size class first and holds a goodput plateau past the knee.
//   2. Hedging — static-SoC serving under recurring Arm-core stalls; the
//      resilient arm duplicates slow small gets onto the host path after
//      an adaptive (counted-draw) delay. First completion wins, the loser
//      is cancelled, and the stall disappears from the tail.
//   3. Crash failover — a governor run with a SoC crash-restart window
//      (--faults can override the schedule). In-flight gets die with the
//      endpoint, deadline-clamped retries surface the evidence, the SoC
//      breaker trips within a bounded gap, the governor fails over to the
//      host path, and half-open probes re-admit the SoC after restart
//      (cold-cache rewarm misses and all).
//
// --check replays every cell at --jobs=1 and --jobs=N asserting
// byte-identical fingerprints, then asserts the no-collapse plateau, the
// baseline collapse, the bounded failover gap, breaker re-admission, and
// the conservation identities (generated == issued - hedges + shed, issued
// == completed + failed + cancelled, good + late == completed, hedges ==
// cancels after the drain).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/governor/serving.h"
#include "src/runtime/check.h"

using namespace snicsim;  // NOLINT: bench brevity
using governor::PolicyKind;
using governor::RunServing;
using governor::ServingResult;
using governor::ServingRunConfig;

namespace {

// Deliberately small serving pools (1 host core + 2 Arm cores) so the knee
// sits at a few Mops and the bench sweeps through it quickly. Four equal
// size classes give the shedder a graded priority order — each CoDel level
// sheds one more class from the bottom (64 B first, 1 KiB last), so
// admission can settle near capacity instead of banging between all-on and
// all-off.
ServingRunConfig Base() {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 4;
  c.fleet.logical_clients = 256;
  c.fleet.seed = 42;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.warmup = FromMicros(30);
  c.window = FromMicros(200);
  return c;
}

constexpr double kDeadlineUs = 40.0;

resilience::ResilienceConfig DeadlineOnly() {
  resilience::ResilienceConfig r;
  r.deadline = FromMicros(kDeadlineUs);
  return r;
}

resilience::ResilienceConfig Shedding() {
  resilience::ResilienceConfig r = DeadlineOnly();
  r.shedding = true;
  r.codel_target = FromMicros(8);
  r.codel_interval = FromMicros(20);
  return r;
}

ServingRunConfig OverloadPoint(double mops, bool resilient) {
  ServingRunConfig c = Base();
  c.policy = PolicyKind::kGovernor;
  // Lift the governor's SoC in-flight cap: it is itself a crude admission
  // controller, and with it in place the baseline never truly drowns. The
  // sweep isolates the resilience layer as the *only* overload protection.
  c.governor.soc_inflight_cap = 1 << 20;
  c.fleet.open_loop = true;
  c.fleet.open_mops = mops;
  c.resil = resilient ? Shedding() : DeadlineOnly();
  return c;
}

// Section 2: static-SoC serving with two 40 us Arm-core stall windows in
// the measurement window; the hedge arm may duplicate onto the host path.
ServingRunConfig HedgePoint(bool hedged) {
  ServingRunConfig c = Base();
  c.policy = PolicyKind::kStaticSoc;
  c.fleet.open_loop = true;
  c.fleet.open_mops = 1.0;
  c.faults.seed = 7;
  c.faults.stalls.push_back({"soc", FromMicros(60), FromMicros(100)});
  c.faults.stalls.push_back({"soc", FromMicros(140), FromMicros(180)});
  if (hedged) {
    c.resil.hedging = true;
    c.resil.hedge_max_bytes = 4096;
    c.resil.hedge_multiplier = 2.0;
    c.resil.hedge_min_delay = FromMicros(4);
  }
  return c;
}

// Section 3: the SoC endpoint crashes at 80 us, restarts at 140 us, and
// comes back with a 20 us cold-cache rewarm. Deadlines bound the failure
// detection; breakers turn it into failover.
ServingRunConfig CrashPoint(const fault::FaultPlan& plan) {
  ServingRunConfig c = Base();
  c.policy = PolicyKind::kGovernor;
  c.fleet.open_loop = true;
  // Above the host pool's lone-core capacity (~3 Mops): the governor *needs*
  // path 2, so the crash hurts, and shedding has to carry the host through
  // the failover interval.
  c.fleet.open_mops = 4.0;
  c.client.transport_timeout = FromMicros(12);
  if (!plan.empty()) {
    c.faults = plan;
  } else {
    c.faults.seed = 7;
    c.faults.crashes.push_back(
        {"soc", FromMicros(80), FromMicros(140), FromMicros(20)});
  }
  c.resil = Shedding();
  c.resil.breakers = true;
  c.resil.breaker_threshold = 0.5;
  c.resil.breaker_min_samples = 4;
  c.resil.breaker_open_epochs = 2;
  c.resil.breaker_probes = 8;
  return c;
}

// One flat cell list so a single SweepQueue covers every section and the
// --jobs determinism check replays everything.
std::vector<ServingRunConfig> AllCells(const std::vector<double>& rates,
                                       const fault::FaultPlan& plan) {
  std::vector<ServingRunConfig> cells;
  for (double mops : rates) {
    cells.push_back(OverloadPoint(mops, /*resilient=*/false));
    cells.push_back(OverloadPoint(mops, /*resilient=*/true));
  }
  cells.push_back(HedgePoint(/*hedged=*/false));
  cells.push_back(HedgePoint(/*hedged=*/true));
  cells.push_back(CrashPoint(plan));
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fault::FaultPlan plan = fault::FaultsFlag(flags);
  const bool check = flags.GetBool(
      "check", false, "assert no-collapse + failover gap + --jobs determinism");
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();

  const std::vector<double> rates = {1.0, 2.0, 4.0, 8.0, 16.0};
  const std::vector<ServingRunConfig> cells = AllCells(rates, plan);
  const std::vector<ServingResult> results = runtime::RunEach(cells, jobs, RunServing);

  // -- Section 1: the overload sweep -------------------------------------
  std::printf("== Overload sweep: goodput (in-deadline Mreqs/s, %.0f us "
              "budget) vs arrival rate ==\n",
              kDeadlineUs);
  Table t({"mops", "base good", "base p99us", "resil good", "resil p99us",
           "shed_codel", "shed_ddl", "late base", "late resil"});
  std::vector<double> base_good(rates.size()), resil_good(rates.size());
  for (size_t i = 0; i < rates.size(); ++i) {
    const ServingResult& base = results[2 * i];
    const ServingResult& res = results[2 * i + 1];
    base_good[i] = base.mreqs;
    resil_good[i] = res.mreqs;
    t.Row()
        .Add(rates[i], 2)
        .Add(base.mreqs, 3)
        .Add(base.p99_us, 1)
        .Add(res.mreqs, 3)
        .Add(res.p99_us, 1)
        .Add(res.shed_codel)
        .Add(res.shed_deadline)
        .Add(base.late)
        .Add(res.late);
  }
  t.Print(std::cout, flags.csv());
  std::printf("expected: both arms agree below the knee; past it the "
              "baseline's goodput collapses (every completion is late) while "
              "the shedding arm holds a plateau by refusing class-0 work.\n");

  // -- Section 2: hedging under SoC stalls -------------------------------
  const ServingResult& hoff = results[2 * rates.size()];
  const ServingResult& hon = results[2 * rates.size() + 1];
  std::printf("\n== Hedged gets vs recurring 40 us SoC stalls (static-SoC "
              "serving) ==\n");
  Table ht({"hedge", "mreqs", "p50_us", "p99_us", "hedges", "wins", "cancels",
            "draws"});
  ht.Row()
      .Add("off")
      .Add(hoff.mreqs, 3)
      .Add(hoff.p50_us, 2)
      .Add(hoff.p99_us, 2)
      .Add(hoff.hedges)
      .Add(hoff.hedge_wins)
      .Add(hoff.hedge_cancels)
      .Add(hoff.resil_draws);
  ht.Row()
      .Add("on")
      .Add(hon.mreqs, 3)
      .Add(hon.p50_us, 2)
      .Add(hon.p99_us, 2)
      .Add(hon.hedges)
      .Add(hon.hedge_wins)
      .Add(hon.hedge_cancels)
      .Add(hon.resil_draws);
  ht.Print(std::cout, flags.csv());
  std::printf("expected: the stall windows dominate the unhedged tail; the "
              "hedged arm escapes to the host path after one counted-draw "
              "delay per hedge, cutting p99.\n");

  // -- Section 3: SoC crash-restart failover ------------------------------
  const ServingResult& cr = results[2 * rates.size() + 2];
  std::printf("\n== SoC crash-restart failover (governor + breakers) ==\n");
  Table ct({"crash_drops", "rewarm_miss", "trips", "reopens", "probes",
            "denied", "trip_us", "gap_us", "good", "late", "failed", "soc%"});
  ct.Row()
      .Add(cr.crash_drops)
      .Add(cr.rewarm_misses)
      .Add(cr.breaker_trips)
      .Add(cr.breaker_reopens)
      .Add(cr.breaker_probes)
      .Add(cr.breaker_denied)
      .Add(cr.soc_trip_us, 1)
      .Add(cr.soc_trip_gap_us, 1)
      .Add(cr.good)
      .Add(cr.late)
      .Add(cr.failed)
      .Add(100.0 * cr.share_soc, 1);
  ct.Print(std::cout, flags.csv());
  std::printf("expected: in-flight SoC gets die in the crash window, the "
              "breaker trips within ~2 governor epochs of the first failure, "
              "routing fails over to the host, and half-open probes re-admit "
              "the SoC after restart (paying rewarm misses over path 3).\n");

  if (!check) {
    return 0;
  }

  // Determinism: every cell byte-identical between --jobs=1 and --jobs=N.
  runtime::Check c("determinism + no-collapse + failover", jobs);
  c.Replay(cells, results, RunServing, &ServingResult::ReplayDigest);

  // Closes the whole request ledger: every generated request is either shed
  // or issued, every hedge adds exactly one extra wire copy, and every issued
  // copy terminates exactly once. Without a manager the deadline/shed/hedge
  // ledgers are not surfaced; only the base identities apply.
  for (size_t i = 0; i < results.size(); ++i) {
    const ServingResult& r = results[i];
    const std::string label = "cell " + std::to_string(i);
    const bool has_resil = !cells[i].resil.empty();
    c.Ledger(label, r.LedgerBreaks(/*deadlines=*/has_resil));
    if (has_resil) {
      c.FailAt(label, r.deadline_failed > r.failed, "deadline_failed %llu > failed %llu",
               static_cast<unsigned long long>(r.deadline_failed),
               static_cast<unsigned long long>(r.failed));
      // Every launched hedge duplicates one request into two wire copies, of
      // which exactly one is cancelled after the drain.
      c.FailAt(label, r.cancelled != r.hedges, "cancelled %llu != hedges %llu",
               static_cast<unsigned long long>(r.cancelled),
               static_cast<unsigned long long>(r.hedges));
    }
  }

  // Knee + plateau: the resilient arm's best rate must not be the grid
  // edge, and goodput at 2x the knee must hold >= 0.9x the knee.
  const size_t knee = static_cast<size_t>(
      std::max_element(resil_good.begin(), resil_good.end()) -
      resil_good.begin());
  if (!c.FailIf(knee + 1 >= rates.size(),
                "knee at the top of the rate grid (%.1f Mops) — widen the sweep",
                rates[knee])) {
    size_t twok = knee;
    while (twok + 1 < rates.size() && rates[twok] < 2.0 * rates[knee]) {
      ++twok;
    }
    c.FailIf(resil_good[twok] < 0.9 * resil_good[knee],
             "resilient goodput at %.1f Mops (%.3f) fell below 0.9x the knee "
             "(%.3f at %.1f Mops)",
             rates[twok], resil_good[twok], resil_good[knee], rates[knee]);
    const double base_peak = *std::max_element(base_good.begin(), base_good.end());
    c.FailIf(base_good.back() >= 0.7 * base_peak,
             "baseline did not collapse (%.3f at %.1f Mops vs peak %.3f)",
             base_good.back(), rates.back(), base_peak);
    c.FailIf(resil_good.back() <= base_good.back(),
             "shedding arm not above baseline at the top rate");
    c.FailIf(results[2 * rates.size() - 1].shed == 0,
             "no requests shed at the top rate");
  }

  // Hedging: wins exist, the tail improves, and the draw ledger is exact
  // (one delay draw per eligible issue, win for every cancelled loser).
  c.FailIf(hon.hedge_wins == 0, "hedging never won a race");
  c.FailIf(hon.p99_us >= hoff.p99_us, "hedged p99 (%.2f us) not below unhedged (%.2f us)",
           hon.p99_us, hoff.p99_us);

  // Failover: the crash produced evidence, the breaker tripped on it
  // within 2 governor epochs, and probes re-admitted the endpoint.
  const double epoch_us = ToMicros(governor::GovernorConfig().epoch);
  c.FailIf(cr.crash_drops == 0, "crash window dropped nothing");
  if (!c.FailIf(cr.breaker_trips == 0, "SoC breaker never tripped")) {
    c.FailIf(cr.soc_trip_gap_us > 2.0 * epoch_us,
             "failover gap %.1f us exceeds 2 epochs (%.1f us)", cr.soc_trip_gap_us,
             2.0 * epoch_us);
  }
  c.FailIf(cr.breaker_probes == 0, "no half-open probes after the crash");
  c.FailIf(cr.rewarm_misses == 0, "restart came up warm (no rewarm misses)");

  return c.Finish("byte-identical across --jobs, plateau held at 2x the knee vs "
                  "baseline collapse, bounded failover gap, breaker re-admission, "
                  "ledger conserved");
}
