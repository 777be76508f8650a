#include "src/sim/parallel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/log.h"
#include "src/common/rng.h"

namespace snicsim {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

}  // namespace

ParallelSimulator::ParallelSimulator(int domains, SimTime lookahead, int threads)
    : lookahead_(lookahead),
      threads_(std::max(1, std::min(threads, domains))),
      outboxes_(static_cast<size_t>(domains)),
      merge_digest_(kFnvOffset) {
  SNIC_CHECK_GT(domains, 0);
  SNIC_CHECK_GT(lookahead, 0);
  sims_.reserve(static_cast<size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  if (threads_ > 1) {
    workers_.reserve(static_cast<size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ParallelSimulator::~ParallelSimulator() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      ++round_gen_;
    }
    round_cv_.notify_all();
    for (std::thread& w : workers_) {
      w.join();
    }
  }
}

ParallelSimulator::Outbox& ParallelSimulator::OutboxFor(DomainId src, DomainId dst, SimTime t) {
  SNIC_CHECK_GE(src, 0);
  SNIC_CHECK_LT(src, domains());
  SNIC_CHECK_GE(dst, 0);
  SNIC_CHECK_LT(dst, domains());
  // The conservative contract: a cross-domain event must land at least one
  // lookahead past the sender's clock, which places it at or beyond the
  // current horizon — no domain can have run past it yet.
  SNIC_CHECK_GE(t, sims_[static_cast<size_t>(src)]->now() + lookahead_);
  return outboxes_[static_cast<size_t>(src)];
}

uint64_t ParallelSimulator::processed() const {
  uint64_t total = 0;
  for (const auto& s : sims_) {
    total += s->processed();
  }
  return total;
}

void ParallelSimulator::Run() {
  for (;;) {
    SimTime m = Simulator::kNoEvent;
    for (const auto& s : sims_) {
      m = std::min(m, s->next_event_time());
    }
    if (m == Simulator::kNoEvent) {
      // Outboxes are drained at every barrier, so empty queues mean a
      // fully quiescent rack.
      return;
    }
    RunRound(m + lookahead_);
    ++rounds_;
    MergeOutboxes();
  }
}

void ParallelSimulator::RunRound(SimTime horizon) {
  if (workers_.empty()) {
    for (const auto& s : sims_) {
      s->RunBefore(horizon);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    round_horizon_ = horizon;
    done_ = 0;
    next_domain_.store(0, std::memory_order_relaxed);
    ++round_gen_;
  }
  round_cv_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return done_ == threads_; });
  // The wait above is the barrier: every outbox append happened-before this
  // point, so MergeOutboxes on this thread reads them race-free.
}

void ParallelSimulator::RunDomainRange(SimTime horizon) {
  const int n = domains();
  for (;;) {
    const int d = next_domain_.fetch_add(1, std::memory_order_relaxed);
    if (d >= n) {
      return;
    }
    sims_[static_cast<size_t>(d)]->RunBefore(horizon);
  }
}

void ParallelSimulator::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    SimTime horizon;
    {
      std::unique_lock<std::mutex> lk(mu_);
      round_cv_.wait(lk, [this, seen] { return stop_ || round_gen_ != seen; });
      if (stop_) {
        return;
      }
      seen = round_gen_;
      horizon = round_horizon_;
    }
    RunDomainRange(horizon);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

void ParallelSimulator::MergeOutboxes() {
  // Order every buffered cross-domain event by (time, src, seq) — a strict
  // total order (seq never repeats within a source), so delivery order, and
  // with it every destination's DES tie-break sequence, is independent of
  // thread schedule. Post appends with next_seq++, so within one outbox
  // index order is seq order: the 16-byte (time, src, index) keys sort into
  // the same order, and no closure moves until it goes, once, from its
  // outbox straight into its destination's event slot.
  merge_keys_.clear();
  for (size_t src = 0; src < outboxes_.size(); ++src) {
    const size_t n = outboxes_[src].events.size();
    for (size_t i = 0; i < n; ++i) {
      merge_keys_.push_back(MergeKey{outboxes_[src].events[i].time,
                                     (uint64_t{src} << 32) | uint64_t{i}});
    }
  }
  if (merge_keys_.empty()) {
    return;
  }
  std::sort(merge_keys_.begin(), merge_keys_.end(), [](const MergeKey& a, const MergeKey& b) {
    return a.time != b.time ? a.time < b.time : a.src_index < b.src_index;
  });
  for (const MergeKey& k : merge_keys_) {
    RemoteEvent& ev = outboxes_[k.src_index >> 32].events[k.src_index & 0xffffffffu];
    merge_digest_ = FnvMix(merge_digest_, static_cast<uint64_t>(ev.time));
    merge_digest_ = FnvMix(merge_digest_, static_cast<uint64_t>(ev.src));
    merge_digest_ = FnvMix(merge_digest_, static_cast<uint64_t>(ev.dst));
    merge_digest_ = FnvMix(merge_digest_, ev.seq);
    sims_[static_cast<size_t>(ev.dst)]->At(ev.time, std::move(ev.cb));
    ++merged_;
  }
  for (Outbox& out : outboxes_) {
    out.events.clear();
  }
}

void ParallelSimulator::RegisterMetrics(MetricsRegistry* reg,
                                        const std::string& instance) {
  reg->Register(instance, "domains", "count", "event domains in this rack",
                [this] { return static_cast<double>(domains()); });
  reg->Register(instance, "rounds", "count",
                "conservative sync rounds (horizon advances)",
                [this] { return static_cast<double>(rounds_); });
  reg->Register(instance, "merged_events", "count",
                "cross-domain events delivered through the barrier merge",
                [this] { return static_cast<double>(merged_); });
  reg->Register(instance, "lookahead_us", "us", "conservative lookahead bound",
                [this] { return ToMicros(lookahead_); });
}

}  // namespace snicsim
