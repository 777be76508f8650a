// Full-precision pins of the bulk-transfer points: the regime where one
// operation is thousands of 4 KiB sub-reads or sub-writes, and where the
// paper's large-transfer results live (Fig. 8's >9 MB READ collapse on
// path ②, Fig. 9's path-③ curve). fig8.golden pins 256 KiB only, below the
// head-of-line threshold and at two decimals, so nothing else would notice
// a change in how the sub-read stream is scheduled.
//
// Every field prints with %.17g, so a single picosecond of drift in any
// completion shows. Regenerate with scripts/update_goldens.sh (or
// UPDATE_GOLDENS=1 on this binary) only for an intentional numeric change.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/workload/harness.h"
#include "tests/golden/golden_check.h"

namespace snicsim {
namespace {

constexpr uint32_t kTenMiB = 10 * 1024 * 1024;

// Events the HoL point dispatched before sub-read grants could be issued
// from the tail of a completion (DESIGN.md §8): two per 4 KiB sub-read, a
// zero-delay credit grant and the completion delivery.
constexpr uint64_t kHolEventsWithQueuedGrants = 2477769;

// fig8_large_read's configuration: eight requester machines.
HarnessConfig Fig8Config() {
  HarnessConfig c;
  c.client_machines = 8;
  return c;
}

// fig9_host_soc's requester for one direction.
LocalRequesterParams Fig9Requester(bool s2h) {
  LocalRequesterParams p = s2h ? LocalRequesterParams::Soc() : LocalRequesterParams::Host();
  if (s2h) {
    p.doorbell_batch = true;
    p.batch = 32;
  }
  return p;
}

HarnessConfig Fig9Config() {
  HarnessConfig c;
  c.warmup = FromMicros(60);
  c.window = FromMicros(400);
  return c;
}

std::string Line(const char* name, const Measurement& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s,%.17g,%.17g,%.17g,%.17g,%llu,%.17g,%.17g\n", name,
                m.mreqs, m.gbps, m.p50_us, m.p99_us, static_cast<unsigned long long>(m.ops),
                m.pcie0_mpps, m.pcie1_mpps);
  return buf;
}

TEST(BulkGolden, LargeTransferPoints) {
  std::string out = "point,mreqs,gbps,p50_us,p99_us,ops,pcie0_mpps,pcie1_mpps\n";
  // Path ② beyond the 9 MB cliff: the head op runs on hol_degraded_credits.
  const Measurement hol =
      MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, kTenMiB, Fig8Config());
  out += Line("READ SNIC(2) 10MiB", hol);
  // Path ① at the same size: the full credit window re-issues per completion.
  out += Line("READ SNIC(1) 10MiB",
              MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, kTenMiB,
                                 Fig8Config()));
  // Path ③ S2H READ at fig9's headline payload.
  out += Line("S2H READ 256KiB", MeasureLocalPath(/*s2h=*/true, Verb::kRead, 256 * 1024,
                                                  Fig9Requester(true), Fig9Config()));
  // Path ③ H2S WRITE: one single-descriptor burst into the 128 B-MTU SoC.
  out += Line("H2S WRITE 10MiB", MeasureLocalPath(/*s2h=*/false, Verb::kWrite, kTenMiB,
                                                  Fig9Requester(false), Fig9Config()));
  CheckGolden("bulk.golden", out);
  // Same numbers from about half the events: nearly every grant now runs
  // inline at the tail of the completion that frees its credit.
  EXPECT_LE(static_cast<double>(hol.events),
            0.55 * static_cast<double>(kHolEventsWithQueuedGrants));
}

}  // namespace
}  // namespace snicsim
