// Consistent-hash shard map for the rack-scale KV (src/topo/rack_kv.h).
//
// Keys (popularity ranks) hash onto a ring of virtual nodes; the first
// vnode clockwise owns the key (the shard's primary) and the next vnode
// belonging to a *different* server is the follower replica. Virtual nodes
// smooth the per-server load imbalance to O(sqrt(vnodes)) and make the map
// stable under membership change — properties the failover scenario leans
// on: when a home domain marks the primary down, the follower is a pure
// function of (ring, key), so every domain promotes the same replacement
// without coordination.
//
// Determinism: the ring is built once from (seed, server, vnode) hashes
// with a keyed 64-bit mixer; no RNG stream is consumed. A shared ring is
// read-only across parallel-sim domains exactly like ZipfDist
// (src/sim/domain.h shared-const rule). Membership change (RemoveServer /
// AddServer) mutates, so the rack membership plane gives each domain its
// own copy and mutates only from that domain's events; because a server's
// vnode points are a pure function of (keyed seed, server, vnode index),
// removal and re-addition are exact inverses and every domain that applies
// the same membership set converges to the identical ring.
//
// Lookup is O(1) expected: a jump table indexed by the top bits of the key
// hash holds, per bucket, the index of the first ring point in that bucket
// or later, so a lookup lands at most one bucket's points before its answer
// (DESIGN.md §13.1). The table is rebuilt with every ring change and copied
// with the ring.
#ifndef SRC_TOPO_SHARD_H_
#define SRC_TOPO_SHARD_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/log.h"
#include "src/common/rng.h"

namespace snicsim {

class HashRing {
 public:
  HashRing(int servers, int vnodes_per_server = 64,
           uint64_t seed = 0x5a4dULL)
      : servers_(servers),
        vnodes_(vnodes_per_server),
        live_(static_cast<size_t>(servers), 1) {
    SNIC_CHECK_GE(servers, 2);
    SNIC_CHECK_GT(vnodes_per_server, 0);
    points_.reserve(static_cast<size_t>(servers * vnodes_per_server));
    // Avalanche the seed before XORing the (server, vnode) id in: a raw
    // `seed ^ v` would let seeds differing only in the vnode-index bits
    // produce the same input *set* (vnodes permuted within each server),
    // i.e. the identical ring.
    keyed_ = SplitMix64(seed);
    for (int s = 0; s < servers; ++s) {
      for (int v = 0; v < vnodes_; ++v) {
        points_.push_back(Point{PointHash(s, v), s});
      }
    }
    SortPoints();
  }

  int servers() const { return servers_; }

  // Membership. Ids stay in [0, servers): removal takes a server's vnodes
  // off the ring (its keys fall to the next live owner clockwise — the
  // minimal-disruption property the churn tests pin), re-addition puts the
  // exact same vnode points back, restoring the original assignment. At
  // least 2 servers must remain live so FollowerOf always has a distinct
  // peer.
  bool IsLive(int server) const {
    return live_[static_cast<size_t>(server)] != 0;
  }

  int LiveCount() const {
    int n = 0;
    for (uint8_t l : live_) {
      n += l;
    }
    return n;
  }

  void RemoveServer(int server) {
    SNIC_CHECK(IsLive(server));
    SNIC_CHECK_GE(LiveCount(), 3);
    live_[static_cast<size_t>(server)] = 0;
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [server](const Point& p) {
                                   return p.server == server;
                                 }),
                  points_.end());
    BuildJumpTable();
  }

  void AddServer(int server) {
    SNIC_CHECK(!IsLive(server));
    live_[static_cast<size_t>(server)] = 1;
    for (int v = 0; v < vnodes_; ++v) {
      points_.push_back(Point{PointHash(server, v), server});
    }
    SortPoints();
  }

  // The server owning `key` (the shard primary).
  int PrimaryOf(uint64_t key) const { return points_[Lookup(key)].server; }

  // The follower replica: the next ring point clockwise from the owner that
  // belongs to a different server. With >= 2 servers one always exists.
  int FollowerOf(uint64_t key) const { return PairOf(key).follower; }

  // Primary and follower from one ring search.
  struct Pair {
    int primary;
    int follower;
  };
  Pair PairOf(uint64_t key) const {
    const size_t start = Lookup(key);
    const int primary = points_[start].server;
    for (size_t i = 1; i < points_.size(); ++i) {
      const int s = points_[(start + i) % points_.size()].server;
      if (s != primary) {
        return Pair{primary, s};
      }
    }
    SNIC_CHECK(false);  // unreachable: >= 2 servers on the ring
    return Pair{primary, primary};
  }

  // The shard pair member serving `key` that is not `self` — where a write
  // executed on `self` pushes its replica. `self` must be one of the pair.
  int ReplicaPeerOf(uint64_t key, int self) const {
    const Pair pair = PairOf(key);
    return self == pair.primary ? pair.follower : pair.primary;
  }

 private:
  struct Point {
    uint64_t hash = 0;
    int server = 0;
  };

  uint64_t PointHash(int s, int v) const {
    return SplitMix64(keyed_ ^ (static_cast<uint64_t>(s) << 32 |
                                static_cast<uint64_t>(v)));
  }

  void SortPoints() {
    std::sort(points_.begin(), points_.end(),
              [](const Point& a, const Point& b) {
                // Hash ties broken by server id: the order must not depend
                // on the (unspecified) relative order std::sort leaves
                // equal keys in.
                return a.hash != b.hash ? a.hash < b.hash : a.server < b.server;
              });
    BuildJumpTable();
  }

  // 2^bit_width(points) buckets: one to two per point, 4 bytes each. The
  // ring always holds >= 2 points, so the shift stays below 64.
  void BuildJumpTable() {
    const int bits = std::bit_width(points_.size());
    shift_ = 64 - bits;
    jump_.resize(size_t{1} << bits);
    uint32_t i = 0;
    for (size_t b = 0; b < jump_.size(); ++b) {
      while (i < points_.size() && (points_[i].hash >> shift_) < b) {
        ++i;
      }
      jump_[b] = i;
    }
  }

  // First ring point at or clockwise after hash(key), wrapping. Every point
  // before the bucket's jump entry hashes below the bucket, so the forward
  // scan finds exactly what a lower_bound over the sorted points would,
  // equal-hash ties included.
  size_t Lookup(uint64_t key) const {
    const uint64_t h = SplitMix64(key);
    size_t i = jump_[h >> shift_];
    while (i < points_.size() && points_[i].hash < h) {
      ++i;
    }
    return i == points_.size() ? 0 : i;
  }

  int servers_;
  int vnodes_;
  uint64_t keyed_ = 0;
  std::vector<uint8_t> live_;
  std::vector<Point> points_;
  int shift_ = 64;
  std::vector<uint32_t> jump_;  // bucket -> first point index at or after it
};

}  // namespace snicsim

#endif  // SRC_TOPO_SHARD_H_
