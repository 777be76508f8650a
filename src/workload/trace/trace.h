// Compact replayable traces of non-stationary production load.
//
// Every workload the simulator served before this layer was a stationary
// Zipf×size mixture; real DPU deployments are provisioned against diurnal
// curves, flash crowds, rotating working sets, scan bursts, and
// compaction-style background traffic. A TracePlan describes all of those
// as a versioned header plus piecewise-constant segments over a finite
// duration; a TraceDriver answers point-in-time lookups for the arrival
// machinery. The format is deliberately *generated* (a dozen segments, not
// a packet capture): runs stay deterministic, diffable, and cheap to sweep.
//
// Segment fields, all piecewise-constant over [start_i, start_{i+1}):
//   rate   offered-load multiplier on the open-loop arrival rate. The
//          fleets issue candidates at the trace's *peak* rate and thin each
//          candidate to the instantaneous rate, so the draw-count per
//          client depends only on (seed, peak, time) — never on which
//          segment accepted it (DESIGN.md §15 determinism note).
//   churn  hot-key rotation: every drawn Zipf rank is shifted by `churn`
//          (mod keyspace), re-seating the working set so previously
//          SoC-resident ranks miss. Zero draws consumed.
//   scan   fraction of issues forced to the largest size class (scan /
//          write-burst phases). Consumes one counted draw per issue iff
//          *any* segment has scan > 0, so the stream layout is a function
//          of the plan, not of time.
//   bg     background-traffic multiplier applied to the open-loop tenant
//          pipelines (compaction-style work competing for the SoC pool and
//          path ③). Scales the deterministic inter-arrival spacing; no
//          draws.
//
// Grammar, the `--load-trace` flag, over the spec core shared with
// --faults / --tenants (src/common/spec.h: inline + @file.json, strict keys
// and numbers; Serialize() is a parse fixed point):
//
//   inline:  version=1,duration=1200,
//            seg=START_US:RATE[:CHURN[:SCAN[:BG]]],...
//   file:    --load-trace=@trace.json with
//            {"version":1,"duration_us":1200,
//             "segments":[{"start_us":0,"rate":0.3,"churn":0,
//                          "scan":0,"bg":3}]}
//
// An empty plan (empty() == true) attaches no driver at all, so a
// trace-free run is byte-identical to a pre-trace build — and a *flat*
// plan (rate==1, churn==0, scan==0, bg==1 everywhere) consumes zero extra
// draws by construction, which is what lets the autoscaler golden test pin
// flat-trace runs against the pre-trace golden byte-for-byte.
#ifndef SRC_WORKLOAD_TRACE_TRACE_H_
#define SRC_WORKLOAD_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/units.h"

namespace snicsim {
namespace trace {

struct TraceSegment {
  double start_us = 0.0;  // segment start, relative to the trace origin
  double rate = 1.0;      // offered-load multiplier (>= 0)
  uint64_t churn = 0;     // Zipf rank rotation (mod keyspace)
  double scan = 0.0;      // fraction of issues forced to the top class [0,1]
  double bg = 1.0;        // background-pipeline rate multiplier (>= 0)

  friend bool operator==(const TraceSegment& a, const TraceSegment& b) {
    return a.start_us == b.start_us && a.rate == b.rate && a.churn == b.churn &&
           a.scan == b.scan && a.bg == b.bg;
  }
};

struct TracePlan {
  int version = 1;
  double duration_us = 0.0;  // segments tile [0, duration_us)
  std::vector<TraceSegment> segments;

  // An empty plan creates no driver: byte-identical to a pre-trace build.
  bool empty() const { return segments.empty(); }

  // Canonical inline form (always all five segment fields):
  // Parse(Serialize(p)) == p, pinned by the grammar round-trip test.
  std::string Serialize() const;

  // Structural checks both grammar forms share: version 1, a duration that
  // fits the simulated clock, first segment at 0, strictly increasing
  // starts, last start < duration, fields in range.
  bool Validate(std::string* error) const;

  friend bool operator==(const TracePlan& a, const TracePlan& b) {
    return a.version == b.version && a.duration_us == b.duration_us &&
           a.segments == b.segments;
  }
};

// Parses the inline or @file form into `out` (reset first). Returns false
// with a human-readable `error` on malformed or unknown input — a typo'd
// trace must not silently replay as stationary load.
bool ParseTracePlan(const std::string& spec, TracePlan* out,
                    std::string* error);

// Registers --load-trace and parses it; exits(2) on malformed input, like
// fault::FaultsFlag and offload::TenantsFlag. (`--trace` is the Chrome-trace
// output sink of the figure benches.)
TracePlan TraceFlag(Flags& flags);

// Point-in-time lookup over a validated, non-empty plan. All queries are
// pure functions of t (times at or past the end clamp to the last segment,
// which only matters during the post-StopIssuing drain).
class TraceDriver {
 public:
  explicit TraceDriver(const TracePlan& plan);

  TraceDriver(const TraceDriver&) = delete;
  TraceDriver& operator=(const TraceDriver&) = delete;

  int SegmentAt(SimTime t) const;
  double RateAt(SimTime t) const { return segs_[Index(t)].rate; }
  uint64_t ChurnAt(SimTime t) const { return segs_[Index(t)].churn; }
  double ScanAt(SimTime t) const { return segs_[Index(t)].scan; }
  double BgAt(SimTime t) const { return segs_[Index(t)].bg; }
  // First segment boundary strictly after t (duration() once t is in the
  // last segment) — how a paused background stream knows when to re-arm.
  SimTime NextChangeAt(SimTime t) const;

  SimTime duration() const { return duration_; }
  int segment_count() const { return static_cast<int>(segs_.size()); }
  const TraceSegment& segment(int i) const { return segs_[static_cast<size_t>(i)]; }

  // Max rate over all segments: the candidate-generation rate the thinning
  // fleets run at.
  double peak_rate() const { return peak_rate_; }
  // Whether any segment forces scans: gates the per-issue scan draw so the
  // draw-stream layout is a function of the plan alone.
  bool has_scan() const { return has_scan_; }
  // Whether every segment is the identity modulation (rate 1, churn 0,
  // scan 0, bg 1): such a plan replays byte-identically to no plan at all.
  bool flat() const { return flat_; }

 private:
  size_t Index(SimTime t) const;

  std::vector<SimTime> starts_;
  std::vector<TraceSegment> segs_;
  SimTime duration_ = 0;
  double peak_rate_ = 1.0;
  bool has_scan_ = false;
  bool flat_ = true;
};

}  // namespace trace
}  // namespace snicsim

#endif  // SRC_WORKLOAD_TRACE_TRACE_H_
