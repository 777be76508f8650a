// Rack-scale sharded KV property suite (src/topo/rack_kv.h):
//
//  - HashRing: primary/follower are distinct, the pair relation is
//    symmetric, the map is a pure function of (seed, servers), and the
//    jump-indexed search agrees with a lower_bound reference under churn.
//  - Replay: the rack fingerprint is byte-identical run-to-run and across
//    --sim-threads ∈ {1,2,4,8}, clean and under drop/flap/crash plans —
//    the determinism contract of DESIGN.md §12 lifted to the full rack.
//  - Aggregate == materialized: the O(users) reference fleet produces a
//    byte-identical rack run (same draws, same arrivals, same everything).
//  - Conservation: both ledgers (home requests, replication) close across
//    seeds x fault plans, including whole-shard crash windows.
//  - Failover: a whole-server crash promotes the follower within 2
//    governor epochs of first evidence and re-homes after restart.
//  - Directed paths: request retry exhaustion, rack-side admission,
//    stale replication acks and serve-path read-repair each fire, with
//    closed ledgers.
//  - Counter declaration: every declared counter moves the fingerprint
//    (bar resident_client_bytes) and is one rack.<name> row of the dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/pool.h"
#include "src/topo/rack_kv.h"
#include "src/topo/rack_kv_internal.h"
#include "src/topo/shard.h"
#include "src/workload/trace/trace.h"
#include "tests/common/metrics_dump.h"

namespace snicsim {
namespace {

TEST(HashRing, PairRelationIsSymmetricAndDistinct) {
  const HashRing ring(4);
  std::set<int> primaries;
  for (uint64_t key = 0; key < 512; ++key) {
    const int p = ring.PrimaryOf(key);
    const int f = ring.FollowerOf(key);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    ASSERT_NE(p, f) << "key " << key;
    EXPECT_EQ(ring.ReplicaPeerOf(key, p), f);
    EXPECT_EQ(ring.ReplicaPeerOf(key, f), p);
    primaries.insert(p);
  }
  // 512 keys over 4 servers x 64 vnodes: every server owns something.
  EXPECT_EQ(primaries.size(), 4u);
}

TEST(HashRing, MapIsDeterministic) {
  const HashRing a(5, 32, 99);
  const HashRing b(5, 32, 99);
  const HashRing c(5, 32, 100);
  bool any_diff = false;
  for (uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(a.PrimaryOf(key), b.PrimaryOf(key));
    EXPECT_EQ(a.FollowerOf(key), b.FollowerOf(key));
    any_diff = any_diff || a.PrimaryOf(key) != c.PrimaryOf(key);
  }
  EXPECT_TRUE(any_diff);  // the seed actually keys the ring
}

TEST(HashRing, RemoveServerIsMinimalDisruption) {
  const HashRing before(5);
  HashRing after(5);
  after.RemoveServer(2);
  EXPECT_FALSE(after.IsLive(2));
  EXPECT_EQ(after.LiveCount(), 4);
  for (uint64_t key = 0; key < 2048; ++key) {
    const int p = before.PrimaryOf(key);
    const int f = before.FollowerOf(key);
    const int np = after.PrimaryOf(key);
    const int nf = after.FollowerOf(key);
    ASSERT_NE(np, 2) << "key " << key;
    ASSERT_NE(nf, 2) << "key " << key;
    if (p != 2 && f != 2) {
      // Keys whose pair never touched the removed server keep their exact
      // assignment: removal only re-seats the dead server's keys.
      ASSERT_EQ(np, p) << "key " << key;
      ASSERT_EQ(nf, f) << "key " << key;
    } else if (p == 2) {
      // The follower is the first non-dead server clockwise — exactly what
      // Lookup falls to once the dead vnodes are gone. Every home that
      // removes the same server promotes the same replacement.
      ASSERT_EQ(np, f) << "key " << key;
    } else {
      // Dead follower: the primary keeps ownership, a new follower steps
      // in from the surviving ring.
      ASSERT_EQ(np, p) << "key " << key;
    }
  }
}

TEST(HashRing, RemoveThenAddRestoresTheOriginalAssignment) {
  const HashRing fresh(5, 32, 7);
  HashRing churned(5, 32, 7);
  churned.RemoveServer(1);
  churned.RemoveServer(3);
  EXPECT_EQ(churned.LiveCount(), 3);
  // Re-add in the opposite order: vnode points are a pure function of
  // (seed, server, vnode), so membership ops commute and the churned ring
  // converges back onto the fresh one point-for-point.
  churned.AddServer(1);
  churned.AddServer(3);
  EXPECT_EQ(churned.LiveCount(), 5);
  for (uint64_t key = 0; key < 2048; ++key) {
    ASSERT_EQ(churned.PrimaryOf(key), fresh.PrimaryOf(key)) << "key " << key;
    ASSERT_EQ(churned.FollowerOf(key), fresh.FollowerOf(key)) << "key " << key;
  }
}

// The ring as it was searched before the jump table: the same keyed point
// hashes HashRing derives, sorted the same way, searched by lower_bound.
class ReferenceRing {
 public:
  ReferenceRing(int servers, int vnodes, uint64_t seed)
      : vnodes_(vnodes), keyed_(SplitMix64(seed)) {
    for (int s = 0; s < servers; ++s) {
      AddServer(s);
    }
  }

  void AddServer(int s) {
    for (int v = 0; v < vnodes_; ++v) {
      points_.push_back(Point{SplitMix64(keyed_ ^ (static_cast<uint64_t>(s) << 32 |
                                                   static_cast<uint64_t>(v))),
                              s});
    }
    std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
      return a.hash != b.hash ? a.hash < b.hash : a.server < b.server;
    });
  }

  void RemoveServer(int s) {
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [s](const Point& p) { return p.server == s; }),
                  points_.end());
  }

  // Whether hash(key) lies past the last point, so the search wraps.
  bool Wraps(uint64_t key) const { return SplitMix64(key) > points_.back().hash; }

  int PrimaryOf(uint64_t key) const { return points_[Lookup(key)].server; }

  int FollowerOf(uint64_t key) const {
    const size_t start = Lookup(key);
    for (size_t i = 1; i < points_.size(); ++i) {
      const int s = points_[(start + i) % points_.size()].server;
      if (s != points_[start].server) {
        return s;
      }
    }
    return -1;
  }

 private:
  struct Point {
    uint64_t hash;
    int server;
  };

  size_t Lookup(uint64_t key) const {
    auto it = std::lower_bound(
        points_.begin(), points_.end(), SplitMix64(key),
        [](const Point& p, uint64_t v) { return p.hash < v; });
    return it == points_.end() ? 0 : static_cast<size_t>(it - points_.begin());
  }

  int vnodes_;
  uint64_t keyed_;
  std::vector<Point> points_;
};

// Every key of a 100k-key space maps identically under both searches;
// returns how many of them wrapped past the last point.
int ExpectSameMap(const HashRing& ring, const ReferenceRing& ref,
                  const std::string& what) {
  int wraps = 0;
  for (uint64_t key = 0; key < 100000; ++key) {
    const HashRing::Pair pair = ring.PairOf(key);
    const int primary = ref.PrimaryOf(key);
    const int follower = ref.FollowerOf(key);
    if (ring.PrimaryOf(key) != primary || ring.FollowerOf(key) != follower ||
        pair.primary != primary || pair.follower != follower) {
      ADD_FAILURE() << what << ": key " << key;
      return wraps;
    }
    wraps += ref.Wraps(key) ? 1 : 0;
  }
  return wraps;
}

TEST(HashRing, JumpLookupMatchesBinarySearch) {
  constexpr uint64_t kSeed = 0x5a4dULL;
  for (const int servers : {2, 5, 64}) {
    for (const int vnodes : {1, 64}) {
      const std::string at =
          std::to_string(servers) + "x" + std::to_string(vnodes);
      HashRing ring(servers, vnodes, kSeed);
      ReferenceRing ref(servers, vnodes, kSeed);
      EXPECT_GT(ExpectSameMap(ring, ref, at), 0) << at << ": no key wrapped";
      if (servers < 5) {
        continue;  // removal needs >= 3 live servers afterwards
      }
      // Churn: removals, then a re-add in a different order.
      ring.RemoveServer(1);
      ref.RemoveServer(1);
      ring.RemoveServer(3);
      ref.RemoveServer(3);
      ExpectSameMap(ring, ref, at + " -1 -3");
      ring.AddServer(1);
      ref.AddServer(1);
      ExpectSameMap(ring, ref, at + " -1 -3 +1");
      // A copy carries the table, and mutating it leaves the original's
      // alone.
      HashRing copy = ring;
      ReferenceRing copy_ref = ref;
      copy.RemoveServer(0);
      copy_ref.RemoveServer(0);
      ExpectSameMap(copy, copy_ref, at + " copy -0");
      ExpectSameMap(ring, ref, at + " original after copy -0");
      copy.AddServer(3);
      copy_ref.AddServer(3);
      ExpectSameMap(copy, copy_ref, at + " copy -0 +3");
    }
  }
}

// Small-but-complete rack: every subsystem instantiated, a run in well
// under a second.
RackKvParams SmallRack() {
  RackKvParams p;
  p.servers = 3;
  p.users = 1500;
  p.think_mean_us = 500.0;
  p.zipf_theta = 0.9;
  p.layout.keys = 4096;
  p.layout.cached_keys = 1024;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.window = FromMicros(150);
  p.seed = 42;
  return p;
}

fault::FaultPlan DropPlan() {
  fault::FaultPlan f;
  f.seed = 9;
  f.drop_rate = 0.05;
  return f;
}

fault::FaultPlan SocCrashPlan() {
  fault::FaultPlan f;
  f.seed = 9;
  f.crashes.push_back(
      {"rack.s1.soc", FromMicros(40), FromMicros(90), FromMicros(10)});
  return f;
}

fault::FaultPlan WholeShardCrashPlan() {
  fault::FaultPlan f;
  f.seed = 9;
  f.crashes.push_back(
      {"rack.s1", FromMicros(40), FromMicros(110), FromMicros(10)});
  return f;
}

TEST(RackKv, ReplayAndSimThreadsAreByteIdentical) {
  RackKvParams p = SmallRack();
  const RackKvResult a = RunRackKv(p);
  const RackKvResult b = RunRackKv(p);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  p.sim_threads = 2;
  const RackKvResult c = RunRackKv(p);
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.repl_acked, 0u);  // replication exercised
  EXPECT_EQ(a.rounds, c.rounds);
  EXPECT_EQ(a.digest, c.digest);
}

// The DESIGN.md §12 thread-invariance grid: every sim_threads level
// reproduces the serial fingerprint byte for byte — fault-free, under
// frame drops plus a flap of server 0's uplink (the reply wire leg), and
// under the legacy `soc` crash alias, which hits every server's SoC.
std::string GridFingerprint(const std::string& faults, int sim_threads) {
  RackKvParams p = SmallRack();
  p.sim_threads = sim_threads;
  std::string error;
  EXPECT_TRUE(fault::ParseFaultPlan(faults, &p.faults, &error)) << error;
  return RunRackKv(p).Fingerprint();
}

TEST(RackKv, FingerprintGridIsSimThreadsInvariant) {
  const std::string clean = GridFingerprint("", 1);
  for (const std::string plan :
       {"", "drop=0.05,seed=7,flap=rack.s0.up:20:60", "crash=soc:40:90:10"}) {
    const std::string serial = plan.empty() ? clean : GridFingerprint(plan, 1);
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(serial, GridFingerprint(plan, threads))
          << "plan '" << plan << "' at sim_threads=" << threads;
    }
    if (!plan.empty()) {
      EXPECT_NE(serial, clean) << "plan '" << plan << "' never bit";
    }
  }
}

TEST(RackKv, MaterializedFleetIsByteIdentical) {
  RackKvParams p = SmallRack();
  const RackKvResult agg = RunRackKv(p);
  p.materialize_fleet = true;
  const RackKvResult mat = RunRackKv(p);
  // Identical draw streams and user-index-independent behavior: the full
  // rack fingerprint — per-class completions included via the per-server
  // ledgers and draw counts — matches byte for byte.
  EXPECT_EQ(agg.Fingerprint(), mat.Fingerprint());
  EXPECT_EQ(agg.fleet_draws, mat.fleet_draws);
  // Only the instrumented (non-fingerprint) memory counter differs.
  EXPECT_GT(mat.resident_client_bytes, agg.resident_client_bytes);
}

TEST(RackKv, LedgersCloseAcrossSeedsAndPlans) {
  const std::vector<fault::FaultPlan> plans = {
      fault::FaultPlan{}, DropPlan(), SocCrashPlan(), WholeShardCrashPlan()};
  for (uint64_t seed : {1ull, 7ull}) {
    for (size_t i = 0; i < plans.size(); ++i) {
      RackKvParams p = SmallRack();
      p.seed = seed;
      p.faults = plans[i];
      const RackKvResult r = RunRackKv(p);
      EXPECT_TRUE(r.Conserved())
          << "seed " << seed << " plan " << i << ": generated " << r.generated
          << " completed " << r.completed << " failed " << r.failed
          << " shed " << r.shed << " repl " << r.repl_pushed << "/"
          << r.repl_acked << "/" << r.repl_failed;
      EXPECT_GT(r.completed, 0u);
      EXPECT_EQ(r.repl_pushed, r.writes);
    }
  }
}

// Each of the five identities, broken alone on a closed ledger, yields exactly
// one break, and that break names the identity's left-hand side.
TEST(RackKv, LedgerBreaksNameEachIdentityAlone) {
  RackKvResult closed;
  closed.generated = 10;
  closed.completed = 6;
  closed.failed = 3;
  closed.shed = 1;
  closed.repl_pushed = 5;
  closed.repl_acked = 4;
  closed.repl_failed = 1;
  closed.ranges_started = 3;
  closed.ranges_completed = 2;
  closed.ranges_failed = 1;
  closed.keys_migrated = 7;
  closed.keys_installed = 7;
  closed.corrupted_keys = 4;
  closed.corrupt_propagated = 1;
  closed.repaired_read = 1;
  closed.repaired_scrub = 2;
  closed.repaired_write = 1;
  closed.corrupt_remaining = 1;
  ASSERT_TRUE(closed.LedgerBreaks().empty());
  ASSERT_TRUE(closed.Conserved());
  const std::vector<std::pair<uint64_t RackKvResult::*, std::string>> lhs = {
      {&RackKvResult::generated, "generated 11 != completed 6 + failed 3 + shed 1"},
      {&RackKvResult::repl_pushed, "repl_pushed 6 != repl_acked 4 + repl_failed 1"},
      {&RackKvResult::ranges_started,
       "ranges_started 4 != ranges_completed 2 + ranges_failed 1"},
      {&RackKvResult::keys_migrated, "keys_migrated 8 != keys_installed 7"},
      {&RackKvResult::corrupted_keys,
       "corrupted_keys 5 + corrupt_propagated 1 != repaired_read 1 + repaired_scrub 2 + "
       "repaired_write 1 + corrupt_remaining 1"},
  };
  for (const auto& [field, expect] : lhs) {
    RackKvResult r = closed;
    ++(r.*field);
    const std::vector<std::string> breaks = r.LedgerBreaks();
    ASSERT_EQ(breaks.size(), 1u) << expect;
    EXPECT_EQ(breaks[0], expect);
    EXPECT_FALSE(r.Conserved());
  }
}

TEST(RackKv, WholeShardCrashFailsOverWithinTwoEpochs) {
  RackKvParams p = SmallRack();
  p.window = FromMicros(250);  // room for crash, recovery, and re-home
  p.faults = WholeShardCrashPlan();
  const RackKvResult r = RunRackKv(p);
  EXPECT_TRUE(r.Conserved());
  // The crash produced evidence and every affected home promoted.
  EXPECT_GT(r.crash_refused + r.serve_timeouts, 0u);
  EXPECT_GT(r.promotions, 0u);
  EXPECT_LE(r.max_promote_gap_us, 2.0 * ToMicros(p.governor_epoch));
  // The restarted server was re-homed, and only after its 110 us restart.
  EXPECT_GT(r.rehomed, 0u);
  EXPECT_GT(r.first_rehome_at_us, 110.0);
}

TEST(RackKv, FaultFreeRunHasNoFailoverActivity) {
  const RackKvResult r = RunRackKv(SmallRack());
  EXPECT_EQ(r.promotions, 0u);
  EXPECT_EQ(r.probes, 0u);
  EXPECT_EQ(r.crash_refused, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.generated, r.completed);
}

// Settling a serve cancels its watchdog (DESIGN.md §13), and a watchdog
// that found its serve settled would fail a SNIC_CHECK, so every fire is
// exactly one serve_timeouts. A fault-free cell fires none. Frame drops with
// an uplink flap, and a SoC crash, lose serves in flight and fire some; a
// whole-server crash refuses arrivals instead. Every ledger closes.
TEST(RackKv, ServeWatchdogFiresOnlyForLostServes) {
  const RackKvResult clean = RunRackKv(SmallRack());
  EXPECT_EQ(clean.serve_timeouts, 0u);
  EXPECT_EQ(clean.late_serves, 0u);
  struct Cell {
    const char* plan;
    bool loses_serves;
  };
  for (const Cell& c : {Cell{"drop=0.05,seed=7,flap=rack.s0.up:20:60", true},
                        Cell{"crash=soc:40:90:10", true},
                        Cell{"crash=rack.s1:40:110:10,seed=9", false}}) {
    RackKvParams p = SmallRack();
    std::string error;
    ASSERT_TRUE(fault::ParseFaultPlan(c.plan, &p.faults, &error)) << error;
    const RackKvResult r = RunRackKv(p);
    EXPECT_GT(c.loses_serves ? r.serve_timeouts : r.crash_refused, 0u) << c.plan;
    EXPECT_TRUE(r.LedgerBreaks().empty()) << c.plan;
  }
}

// -- Directed paths: retry exhaustion, rack-side admission, stale acks ------

// Runs `p` serially and at two sim threads: the ledgers close and the
// fingerprint is thread-invariant on every directed path.
RackKvResult RunInvariant(const RackKvParams& p) {
  const RackKvResult r = RunRackKv(p);
  EXPECT_TRUE(r.Conserved());
  RackKvParams p2 = p;
  p2.sim_threads = 2;
  EXPECT_EQ(RunRackKv(p2).Fingerprint(), r.Fingerprint());
  return r;
}

TEST(RackKv, TightRequestTimeoutRetriesAndExhausts) {
  // A timeout shorter than a loaded round trip: OnTimeout fires, the late
  // replies lose the race and count as stale, and three attempts run out.
  RackKvParams p = SmallRack();
  p.request_timeout = FromMicros(6);
  p.max_attempts = 3;
  const RackKvResult r = RunInvariant(p);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_GT(r.stale_replies, 0u);
  EXPECT_GT(r.failed, 0u);
}

TEST(RackKv, RackAdmissionShedsThroughTheTokenBucket) {
  RackKvParams p = SmallRack();
  p.resil.shedding = true;
  p.resil.bucket_mops = 2.0;
  p.resil.bucket_depth = 4.0;
  const RackKvResult r = RunInvariant(p);
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.shed_bucket, 0u);
  // Rack admission passes no deadline, so every refusal is exactly one
  // CoDel or token-bucket shed; with no timeouts each lands home as shed.
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.shed, r.shed_codel + r.shed_bucket);
}

TEST(RackKv, TightReplicationTimeoutCountsStaleAcks) {
  RackKvParams p = SmallRack();
  p.repl_timeout = FromMicros(3);
  const RackKvResult r = RunInvariant(p);
  EXPECT_GT(r.repl_stale, 0u);
}

// -- Membership-change & repair plane (DESIGN.md §16) ---------------------

TEST(RackKv, QuietMembershipIsByteIdenticalToDisabled) {
  // The plane's no-regression pin: enabling membership without any fault
  // (and without the scrubber) allocates the per-domain ring copies but
  // consumes no draws and schedules no events — the fingerprint, with all
  // its membership fields at zero, matches the disabled run byte for byte.
  RackKvParams p = SmallRack();
  const RackKvResult off = RunRackKv(p);
  p.membership.enabled = true;
  const RackKvResult on = RunRackKv(p);
  EXPECT_EQ(off.Fingerprint(), on.Fingerprint());
  EXPECT_EQ(on.removals, 0u);
  EXPECT_EQ(on.member_epoch, 0u);
  EXPECT_EQ(on.ranges_started, 0u);
  EXPECT_EQ(on.integrity_checks, 0u);
}

TEST(RackKv, FlatTraceIsByteIdenticalToTraceFree) {
  // A flat trace (rate 1, churn 0, scan 0, bg 1) consumes zero extra draws
  // by construction, so wiring --load-trace through the rack must not move a
  // single byte of the fingerprint.
  RackKvParams p = SmallRack();
  const RackKvResult bare = RunRackKv(p);
  p.trace.version = 1;
  p.trace.duration_us = ToMicros(p.window);
  p.trace.segments.push_back({0.0, 1.0, 0, 0.0, 1.0});
  const RackKvResult flat = RunRackKv(p);
  EXPECT_EQ(bare.Fingerprint(), flat.Fingerprint());
  EXPECT_EQ(flat.scan_forced, 0u);
}

TEST(RackKv, ShapedTraceChangesTheRunButStaysDeterministic) {
  RackKvParams p = SmallRack();
  const RackKvResult bare = RunRackKv(p);
  p.trace.version = 1;
  p.trace.duration_us = ToMicros(p.window);
  p.trace.segments.push_back({0.0, 1.0, 0, 0.0, 1.0});
  p.trace.segments.push_back({60.0, 0.5, 97, 0.3, 1.0});
  const RackKvResult shaped = RunRackKv(p);
  EXPECT_NE(bare.Fingerprint(), shaped.Fingerprint());
  EXPECT_GT(shaped.scan_forced, 0u);  // the scan window forced top-class ops
  EXPECT_TRUE(shaped.Conserved());
  RackKvParams p2 = p;
  p2.sim_threads = 2;
  EXPECT_EQ(RunRackKv(p2).Fingerprint(), shaped.Fingerprint());
}

RackKvParams MembershipRack() {
  RackKvParams p = SmallRack();
  p.servers = 4;  // RemoveServer needs >= 3 live before each removal
  p.window = FromMicros(400);
  p.membership.enabled = true;
  p.faults.seed = 9;
  return p;
}

TEST(RackKv, PermanentLossConvergesMigratesAndLosesNothing) {
  RackKvParams p = MembershipRack();
  p.faults.permlosses.push_back({"rack.s1", FromMicros(60)});
  const RackKvResult r = RunRackKv(p);
  EXPECT_TRUE(r.Conserved());
  // Every home executed the one removal (the dead server's own home side
  // adopts it via a stale-epoch bounce) and landed on epoch 1.
  EXPECT_EQ(r.member_epoch, 1u);
  EXPECT_GE(r.removals, static_cast<uint64_t>(p.servers - 1));
  EXPECT_LE(r.removals, static_cast<uint64_t>(p.servers));
  EXPECT_GT(r.stale_epoch_bounces, 0u);
  // Detection sits a promote window plus permloss_epochs probe epochs
  // after the loss.
  EXPECT_GE(r.membership_change_at_us, 60.0);
  EXPECT_LE(r.membership_change_at_us,
            60.0 + (p.membership.permloss_epochs + 8) *
                       ToMicros(p.governor_epoch));
  // With replicas intact a single loss strands nothing: every affected
  // range migrates off the survivor and every pushed key is installed.
  EXPECT_EQ(r.keys_lost, 0u);
  EXPECT_EQ(r.ranges_failed, 0u);
  EXPECT_GT(r.keys_migrated, 0u);
  EXPECT_EQ(r.keys_migrated, r.keys_installed);
  EXPECT_GT(r.repair_path3_bytes, 0u);
  EXPECT_GT(r.repair_done_at_us, r.membership_change_at_us);
  // The repair plane keeps the determinism contract.
  RackKvParams p2 = p;
  p2.sim_threads = 2;
  EXPECT_EQ(RunRackKv(p2).Fingerprint(), r.Fingerprint());
}

TEST(RackKv, CorruptionIsDetectedHealedAndNeverServed) {
  RackKvParams p = MembershipRack();
  p.membership.scrub_keys_per_epoch = 1024;  // full sweep in 4 epochs
  p.faults.corrupts.push_back({"rack.s1", FromMicros(30), 0.3});
  const RackKvResult r = RunRackKv(p);
  EXPECT_TRUE(r.Conserved());
  EXPECT_GT(r.corrupted_keys, 0u);
  // Every flip was caught by the scrubber or a serve-path verify, healed
  // from the surviving replica (or overwritten), and none remain.
  EXPECT_GT(r.scrub_detected + r.read_repair_detected, 0u);
  EXPECT_EQ(r.corrupt_remaining, 0u);
  EXPECT_EQ(r.undetected_corrupt_serves, 0u);
  // Corruption alone must not trigger membership change.
  EXPECT_EQ(r.removals, 0u);
  EXPECT_EQ(r.keys_migrated, 0u);
  RackKvParams p2 = p;
  p2.sim_threads = 2;
  EXPECT_EQ(RunRackKv(p2).Fingerprint(), r.Fingerprint());
}

// Read-repair on its own: no scrubber, so every detection is a serve-path
// verify. Corrupting every value one server stores while reads flow forces
// served reads onto the replica heal.
TEST(RackKv, ServedCorruptReadIsRepaired) {
  RackKvParams p = SmallRack();
  ASSERT_EQ(p.membership.scrub_keys_per_epoch, 0u);
  p.faults.seed = 9;
  p.faults.corrupts.push_back({"rack.s1", FromMicros(30), 1.0});
  const RackKvResult r = RunRackKv(p);
  EXPECT_GT(r.corrupted_keys, 0u);
  EXPECT_EQ(r.scrub_checked, 0u);
  EXPECT_GT(r.read_repair_detected, 0u);
  EXPECT_GT(r.repaired_read, 0u);
  EXPECT_EQ(r.undetected_corrupt_serves, 0u);
  EXPECT_EQ(r.corrupted_keys + r.corrupt_propagated,
            r.repaired_read + r.repaired_scrub + r.repaired_write +
                r.corrupt_remaining);
  EXPECT_TRUE(r.Conserved());
  RackKvParams p2 = p;
  p2.sim_threads = 2;
  EXPECT_EQ(RunRackKv(p2).Fingerprint(), r.Fingerprint());
}

TEST(RackKv, LossAndCorruptionComposeWithClosedLedgers) {
  RackKvParams p = MembershipRack();
  p.membership.scrub_keys_per_epoch = 1024;
  p.faults.permlosses.push_back({"rack.s1", FromMicros(60)});
  p.faults.corrupts.push_back({"rack.s2", FromMicros(80), 0.2});
  const RackKvResult r = RunRackKv(p);
  EXPECT_TRUE(r.Conserved());
  EXPECT_EQ(r.member_epoch, 1u);
  EXPECT_GT(r.keys_migrated, 0u);
  EXPECT_GT(r.corrupted_keys, 0u);
  // Migration may move a corrupt sole copy — counted, healed where a clean
  // replica survives, surfaced (never silently served) where none does.
  EXPECT_EQ(r.undetected_corrupt_serves, 0u);
  RackKvParams p2 = p;
  p2.sim_threads = 2;
  EXPECT_EQ(RunRackKv(p2).Fingerprint(), r.Fingerprint());
}

// -- The counter declaration (rack_kv.h) reaches both outputs --------------

TEST(RackKvCounters, EveryDeclaredCounterMovesTheFingerprint) {
  const std::string base = RackKvResult{}.Fingerprint();
  ForEachRackCounter([&](const RackCounterInfo& c, auto field) {
    RackKvResult r;
    r.*field += 1;
    // Only the sizeof-derived memory counter stays out of the fingerprint.
    EXPECT_EQ(c.fingerprinted, std::string(c.name) != "resident_client_bytes") << c.name;
    EXPECT_EQ(r.Fingerprint() != base, c.fingerprinted) << c.name;
  });
}

TEST(RackKvCounters, MetricsDumpHasOneRowPerDeclaredCounter) {
  RackKvParams p = MembershipRack();
  p.membership.scrub_keys_per_epoch = 1024;
  p.faults.permlosses.push_back({"rack.s1", FromMicros(60)});
  p.faults.corrupts.push_back({"rack.s2", FromMicros(80), 0.2});
  p.metrics_path = ::testing::TempDir() + "rack_kv_test_metrics.json";
  const RackKvResult r = RunRackKv(p);

  std::ifstream in(p.metrics_path);
  ASSERT_TRUE(in.good()) << p.metrics_path;
  std::ostringstream text;
  text << in.rdbuf();
  std::map<std::string, std::pair<double, std::string>> dump;
  const std::vector<MetricsDumpRow> rows = ReadMetricsDump(text.str());
  for (const MetricsDumpRow& row : rows) {
    dump[row.name] = {row.value, row.unit};
  }
  std::remove(p.metrics_path.c_str());
  EXPECT_EQ(rows.size(), dump.size()) << "duplicate keys in the dump";

  size_t declared = 0;
  ForEachRackCounter([&](const RackCounterInfo& c, auto field) {
    ++declared;
    const auto it = dump.find(std::string("rack.") + c.name);
    ASSERT_NE(it, dump.end()) << "rack." << c.name << " missing from the dump";
    EXPECT_EQ(it->second.second, c.unit) << c.name;
    // Integral values print exactly; the rest (the digest, us times) as %.6g.
    const double want = static_cast<double>(r.*field);
    EXPECT_NEAR(it->second.first, want, 1e-5 * std::max(1.0, std::fabs(want))) << c.name;
  });
  EXPECT_EQ(dump.size(), declared);
  EXPECT_GT(r.removals + r.scrub_detected, 0u);  // the dump carries live planes
}

// The slab-reuse guard under every rack record: a slot freed and handed out
// again carries the next generation of its pool, so a handle taken before
// the Free no longer matches it.
TEST(GuardedPool, ReusedSlotInvalidatesOlderHandles) {
  GuardedPool<rackkv::HomeOp> ops;
  GuardedPool<rackkv::HomeOp> other;
  rackkv::HomeOp* op = ops.Alloc();
  op->token = 3;
  const rackkv::HomeRef before{op, op->gen, op->token};
  ASSERT_TRUE(before.Live());
  EXPECT_EQ(other.Alloc()->gen, 1u);
  EXPECT_EQ(other.Alloc()->gen, 2u);

  ops.Free(op);
  EXPECT_EQ(op->gen, 0u);
  rackkv::HomeOp* again = ops.Alloc();
  ASSERT_EQ(again, op);  // the same slot, reused
  again->token = before.token;
  EXPECT_FALSE(before.Live());
  EXPECT_EQ(again->gen, before.gen + 1);
  // Each pool counts its own generations.
  EXPECT_EQ(other.Alloc()->gen, 3u);
  EXPECT_EQ(ops.live(), 1u);
  EXPECT_EQ(other.live(), 3u);
}

}  // namespace
}  // namespace snicsim
