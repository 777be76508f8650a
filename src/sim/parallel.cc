#include "src/sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <utility>

#include "src/common/log.h"
#include "src/common/rng.h"

namespace snicsim {

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

SimTime ParallelSimulator::NextHorizon() const {
  SimTime m = Simulator::kNoEvent;
  for (const auto& s : sims_) {
    m = std::min(m, s->next_event_time());
  }
  // Outboxes are drained at every barrier, so empty queues mean a fully
  // quiescent rack.
  return m == Simulator::kNoEvent ? m : m + lookahead_;
}

void ParallelSimulator::Run() noexcept {
  SimTime horizon = NextHorizon();
  std::atomic<int> next_domain{0};
  // The completion step runs once per round on the last runner to arrive,
  // after every runner's appends and before any runner leaves the barrier,
  // so it reads the outboxes and writes the round state race-free.
  std::barrier sync(threads_, [&]() noexcept {
    ++rounds_;
    MergeOutboxes();
    horizon = NextHorizon();
    next_domain.store(0, std::memory_order_relaxed);
  });
  const auto runner = [&] {
    const int n = domains();
    while (horizon != Simulator::kNoEvent) {
      for (int d = next_domain++; d < n; d = next_domain++) {
        sims_[static_cast<size_t>(d)]->RunBefore(horizon);
      }
      sync.arrive_and_wait();
    }
  };
  // Declared after the barrier, so the helpers are joined before it goes.
  std::vector<std::jthread> helpers;
  for (int t = 1; t < threads_; ++t) {
    helpers.emplace_back(runner);
  }
  runner();
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

}  // namespace snicsim
