#include "src/workload/aggregate_fleet.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/log.h"
#include "src/common/rng.h"

namespace snicsim {

AggregateFleet::AggregateFleet(Simulator* sim, AggregateFleetParams params)
    : sim_(sim), params_(std::move(params)) {
  SNIC_CHECK_GT(params_.think_mean_us, 0.0);
  cls_.resize(params_.users_per_class.size());
  for (size_t c = 0; c < cls_.size(); ++c) {
    ClassState& s = cls_[c];
    s.users = params_.users_per_class[c];
    // splitmix64 decorrelates the per-class stream seeds.
    s.rng = Rng(SplitMix64(params_.seed ^ (c + 1)));
    users_total_ += s.users;
    if (params_.materialize && s.users > 0) {
      SNIC_CHECK_LE(s.users, (1ull << 32));
      s.busy.assign(s.users, 0);
      // Stack top = highest index, so pops hand out user 0, 1, ... first.
      s.free_stack.resize(s.users);
      for (uint64_t u = 0; u < s.users; ++u) {
        s.free_stack[s.users - 1 - u] = static_cast<uint32_t>(u);
      }
    }
  }
}

double AggregateFleet::Draw(int cls) {
  ++draws_;
  return cls_[static_cast<size_t>(cls)].rng.NextDouble();
}

uint64_t AggregateFleet::inflight_total() const {
  uint64_t n = 0;
  for (const ClassState& s : cls_) {
    n += s.inflight;
  }
  return n;
}

size_t AggregateFleet::resident_state_bytes() const {
  size_t bytes = sizeof(*this) + cls_.capacity() * sizeof(ClassState);
  for (const ClassState& s : cls_) {
    bytes += s.busy.capacity() * sizeof(uint8_t) +
             s.free_stack.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

void AggregateFleet::Start(IssueFn issue) {
  SNIC_CHECK(issue != nullptr);
  SNIC_CHECK(issue_ == nullptr);  // Start is one-shot
  issue_ = std::move(issue);
  for (int c = 0; c < classes(); ++c) {
    if (cls_[static_cast<size_t>(c)].users > 0) {
      ScheduleNext(c);
    }
  }
}

void AggregateFleet::ScheduleNext(int cls) {
  ClassState& s = cls_[static_cast<size_t>(cls)];
  // Candidate gaps at the constant max rate users/Z (times the trace's
  // peak multiplier when one is attached); -log1p(-u) keeps the
  // exponential draw finite for u -> 1 and exact for u == 0.
  const double u = Draw(cls);
  double mean_us = params_.think_mean_us / static_cast<double>(s.users);
  if (trace_ != nullptr) {
    mean_us /= trace_->peak_rate();
  }
  const double gap_us = -std::log1p(-u) * mean_us;
  const SimTime gap = std::max<SimTime>(FromMicros(gap_us), 1);
  sim_->At(sim_->now() + gap, [this, cls] { Candidate(cls); });
}

void AggregateFleet::Candidate(int cls) {
  if (stopped_) {
    return;  // chain ends; nothing rearms
  }
  ClassState& s = cls_[static_cast<size_t>(cls)];
  // Thinning: accept with probability idle/users — scaled by the trace's
  // instantaneous-over-peak ratio when one is attached. The draw happens
  // even at idle == 0 so the stream position depends only on the candidate
  // count, and because it is *always* consumed, folding the trace into the
  // acceptance test leaves the draw-stream layout untouched for any plan.
  const double accept = Draw(cls);
  const uint64_t idle = s.users - s.inflight;
  double scale = 1.0;
  if (trace_ != nullptr) {
    scale = trace_->RateAt(sim_->now()) / trace_->peak_rate();
  }
  if (accept * static_cast<double>(s.users) <
      static_cast<double>(idle) * scale) {
    ++s.generated;
    ++generated_;
    ++s.inflight;
    peak_inflight_ = std::max(peak_inflight_, inflight_total());
    uint64_t user = s.generated - 1;
    if (params_.materialize) {
      SNIC_CHECK(!s.free_stack.empty());
      user = s.free_stack.back();
      s.free_stack.pop_back();
      s.busy[user] = 1;
    }
    issue_(cls, user);
  }
  ScheduleNext(cls);
}

void AggregateFleet::OnComplete(int cls, uint64_t user) {
  ClassState& s = cls_[static_cast<size_t>(cls)];
  SNIC_CHECK_GT(s.inflight, 0u);
  --s.inflight;
  if (params_.materialize) {
    SNIC_CHECK_LT(user, s.busy.size());
    SNIC_CHECK(s.busy[user] == 1);
    s.busy[user] = 0;
    s.free_stack.push_back(static_cast<uint32_t>(user));
  }
}

std::vector<uint64_t> AggregateFleet::Partition(
    uint64_t total, const std::vector<double>& weights) {
  SNIC_CHECK(!weights.empty());
  double sum = 0.0;
  for (double w : weights) {
    SNIC_CHECK_GE(w, 0.0);
    sum += w;
  }
  SNIC_CHECK_GT(sum, 0.0);
  std::vector<uint64_t> out(weights.size(), 0);
  std::vector<std::pair<double, size_t>> rem;  // (-fraction, index)
  rem.reserve(weights.size());
  uint64_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    out[i] = static_cast<uint64_t>(exact);
    assigned += out[i];
    rem.emplace_back(-(exact - std::floor(exact)), i);
  }
  // Largest remainder first; equal remainders resolve to the lowest index.
  std::sort(rem.begin(), rem.end());
  for (size_t k = 0; assigned < total; ++k, ++assigned) {
    ++out[rem[k % rem.size()].second];
  }
  return out;
}

}  // namespace snicsim
