#include "src/workload/trace/trace.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/common/spec.h"

namespace snicsim {
namespace trace {

bool TracePlan::Validate(std::string* error) const {
  if (empty()) {
    return true;
  }
  if (version != 1) {
    *error = "unsupported trace version " + std::to_string(version) +
             " (want 1)";
    return false;
  }
  SimTime end = 0;
  if (duration_us <= 0.0 || !spec::MicrosToTime(duration_us, &end)) {
    *error = "trace duration must be > 0 and fit the simulated clock";
    return false;
  }
  if (segments.front().start_us != 0.0) {
    *error = "first segment must start at 0 (got " +
             FmtDouble(segments.front().start_us) + ")";
    return false;
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    const TraceSegment& seg = segments[i];
    if (i > 0 && seg.start_us <= segments[i - 1].start_us) {
      // Catches both overlapping segments and non-monotone timestamps.
      *error = "segment starts must be strictly increasing (" +
               FmtDouble(segments[i - 1].start_us) + " then " +
               FmtDouble(seg.start_us) + ")";
      return false;
    }
    if (seg.rate < 0.0) {
      *error = "segment rate must be >= 0";
      return false;
    }
    if (seg.scan < 0.0 || seg.scan > 1.0) {
      *error = "segment scan not in [0, 1]";
      return false;
    }
    if (seg.bg < 0.0) {
      *error = "segment bg must be >= 0";
      return false;
    }
  }
  if (segments.back().start_us >= duration_us) {
    *error = "last segment starts at or past the trace duration";
    return false;
  }
  return true;
}

std::string TracePlan::Serialize() const {
  if (empty()) {
    return "";
  }
  std::string out = "version=" + std::to_string(version);
  out += ",duration=" + FmtDouble(duration_us);
  for (const TraceSegment& seg : segments) {
    out += ",seg=" + FmtDouble(seg.start_us) + ":" + FmtDouble(seg.rate) +
           ":" + std::to_string(seg.churn) + ":" + FmtDouble(seg.scan) + ":" +
           FmtDouble(seg.bg);
  }
  return out;
}

bool ParseTracePlan(const std::string& text, TracePlan* out, std::string* error) {
  *out = TracePlan();
  error->clear();
  const auto seg = [out](spec::Value& v) {
    TraceSegment g;
    if (!v.ReadRecord({{"start_us", &g.start_us},
                       {"rate", &g.rate},
                       {"churn", &g.churn},
                       {"scan", &g.scan},
                       {"bg", &g.bg}},
                      2)) {
      return false;
    }
    out->segments.push_back(g);
    return true;
  };
  const spec::Grammar grammar{"trace",
                              "trace",
                              {spec::Scalar("version", &out->version),
                               spec::Scalar("duration", &out->duration_us, "duration_us"),
                               spec::Records("seg", "segments", seg, "segment")}};
  return spec::Parse(text, grammar, error) && out->Validate(error);
}

TracePlan TraceFlag(Flags& flags) {
  return spec::ParseFlag<TracePlan>(
      flags, "load-trace",
      "non-stationary load trace: version=1,duration=US,"
      "seg=START_US:RATE[:CHURN[:SCAN[:BG]]],... or @file.json",
      ParseTracePlan);
}

TraceDriver::TraceDriver(const TracePlan& plan) {
  std::string error;
  SNIC_CHECK(!plan.empty());
  SNIC_CHECK(plan.Validate(&error));
  duration_ = FromMicros(plan.duration_us);
  peak_rate_ = 0.0;
  for (const TraceSegment& seg : plan.segments) {
    starts_.push_back(FromMicros(seg.start_us));
    segs_.push_back(seg);
    peak_rate_ = std::max(peak_rate_, seg.rate);
    has_scan_ = has_scan_ || seg.scan > 0.0;
    flat_ = flat_ && seg.rate == 1.0 && seg.churn == 0 && seg.scan == 0.0 &&
            seg.bg == 1.0;
  }
  // A plan whose every rate is 0 offers no load; the thinning fleets divide
  // by the peak, so degrade it to 1 (every candidate is then rejected).
  if (peak_rate_ <= 0.0) {
    peak_rate_ = 1.0;
  }
}

size_t TraceDriver::Index(SimTime t) const {
  // First segment whose start is > t, minus one; t before 0 cannot happen
  // (SimTime is non-negative) and t past the end clamps to the last segment.
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), t);
  return static_cast<size_t>(it - starts_.begin()) - 1;
}

int TraceDriver::SegmentAt(SimTime t) const {
  return static_cast<int>(Index(t));
}

SimTime TraceDriver::NextChangeAt(SimTime t) const {
  const size_t i = Index(t);
  return i + 1 < starts_.size() ? starts_[i + 1] : duration_;
}

}  // namespace trace
}  // namespace snicsim
