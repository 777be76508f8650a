// Online statistics the path-selection governor feeds on.
//
// Two kinds of signal, both deterministic:
//  - per-(path, size-class) completion latency EWMAs, updated from the
//    fleet's Observer callback in completion order (which the DES fixes);
//  - epoch deltas of cumulative meters (CPU busy time, path-③ bytes),
//    sampled on the governor's own periodic event straight from the
//    components that own them (ServerStack::AttachGovernor binds them).
#ifndef SRC_GOVERNOR_STATS_H_
#define SRC_GOVERNOR_STATS_H_

#include <functional>
#include <utility>

namespace snicsim {
namespace governor {

// Exponentially weighted moving average; empty until the first observation.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}

  void Observe(double v) {
    if (!seen_) {
      value_ = v;
      seen_ = true;
      return;
    }
    value_ += alpha_ * (v - value_);
  }

  bool seen() const { return seen_; }
  // `fallback` is returned until the first observation (the analytic prior).
  double ValueOr(double fallback) const { return seen_ ? value_ : fallback; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seen_ = false;
};

// Reports the change in a cumulative meter since the previous Sample()
// call; the baseline is the meter's level at Bind.
class MetricDelta {
 public:
  using Sampler = std::function<double()>;

  // A null sampler leaves the delta unbound: Sample() reads 0.
  void Bind(Sampler sample) {
    sample_ = std::move(sample);
    if (sample_ != nullptr) {
      last_ = sample_();
    }
  }

  double Sample() {
    if (sample_ == nullptr) {
      return 0.0;
    }
    const double now = sample_();
    const double delta = now - last_;
    last_ = now;
    return delta;
  }

 private:
  Sampler sample_;
  double last_ = 0.0;
};

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_STATS_H_
