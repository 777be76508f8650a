#include "src/workload/fleet.h"

#include <cmath>
#include <utility>

#include "src/common/log.h"

namespace snicsim {

namespace {
// A closed-loop client re-pumps this long after its request was shed.
constexpr SimTime kShedBackoff = FromMicros(5);
}  // namespace

int SizeMixture::ClassOf(double u) const {
  SNIC_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SNIC_CHECK_GE(w, 0.0);
    total += w;
  }
  SNIC_CHECK_GT(total, 0.0);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    if (u < acc) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(weights.size()) - 1;
}

ClientFleet::ClientFleet(Simulator* sim, Fabric* fabric, const FleetParams& params,
                         const std::string& prefix)
    : sim_(sim), params_(params), prefix_(prefix) {
  SNIC_CHECK_GT(params_.machines, 0);
  SNIC_CHECK_GT(params_.logical_clients, 0);
  SNIC_CHECK_GT(params_.window, 0);
  machines_.reserve(static_cast<size_t>(params_.machines));
  for (int i = 0; i < params_.machines; ++i) {
    machines_.push_back(std::make_unique<ClientMachine>(sim, fabric, params_.machine,
                                                        prefix + std::to_string(i)));
  }
}

void ClientFleet::SetTrace(const trace::TraceDriver* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    phase_generated_.assign(static_cast<size_t>(trace_->segment_count()), 0);
    phase_shed_.assign(static_cast<size_t>(trace_->segment_count()), 0);
  }
}

void ClientFleet::Start(std::vector<TargetSpec> paths, const ZipfDist* zipf,
                        const SizeMixture& mix, std::vector<uint32_t> class_bytes,
                        HeaderFn header, Router route, Observer observe) {
  SNIC_CHECK(!paths.empty());
  SNIC_CHECK(zipf != nullptr);
  SNIC_CHECK_EQ(mix.weights.size(), class_bytes.size());
  SNIC_CHECK(header != nullptr);
  SNIC_CHECK(route != nullptr);
  SNIC_CHECK(logicals_.empty());  // once: the clients' records never move
  paths_ = std::move(paths);
  for (const TargetSpec& p : paths_) {
    SNIC_CHECK(p.engine != nullptr);
    SNIC_CHECK(p.endpoint != nullptr);
    SNIC_CHECK(p.server_port != nullptr);
  }
  zipf_ = zipf;
  mix_ = mix;
  class_bytes_ = std::move(class_bytes);
  header_ = std::move(header);
  route_ = std::move(route);
  observe_ = std::move(observe);
  path_issued_.assign(paths_.size(), 0);
  path_completed_.assign(paths_.size(), 0);
  path_failed_.assign(paths_.size(), 0);
  path_shed_.assign(paths_.size(), 0);
  path_cancelled_.assign(paths_.size(), 0);

  const int lanes = params_.machines * params_.machine.threads;
  logicals_.reserve(static_cast<size_t>(params_.logical_clients));
  for (int id = 0; id < params_.logical_clients; ++id) {
    Logical* lc = &logicals_.emplace_back();
    lc->id = static_cast<uint64_t>(id);
    const int lane = id % lanes;
    lc->machine = lane % params_.machines;
    lc->thread = lane / params_.machines;
    // Seed from (fleet seed, client id) only: the stream is a function of
    // identity, never of scheduling.
    lc->rng = Rng(params_.seed ^ (0x9e3779b97f4a7c15ULL * (lc->id + 1)));
    // Stagger starts so thousands of clients don't ring doorbells in one
    // event: a deterministic spread over ~25 us.
    const SimTime offset = FromNanos(25) * static_cast<SimTime>(id % 997);
    if (params_.open_loop) {
      sim_->In(offset, [this, lc] { ScheduleArrival(lc); });
    } else {
      sim_->In(offset, [this, lc] { Pump(lc); });
    }
  }
}

void ClientFleet::Pump(Logical* lc) {
  while (!stopped_ && lc->in_flight < params_.window) {
    lc->in_flight += 1;
    IssueOne(lc);
  }
}

void ClientFleet::ScheduleArrival(Logical* lc) {
  SNIC_CHECK_GT(params_.open_mops, 0.0);
  // Aggregate Poisson process thinned per client: exponential gaps with
  // mean logical_clients / open_mops microseconds, drawn from the client's
  // own stream (deterministic, order independent). Under a trace the gaps
  // run at the trace's *peak* rate and each candidate is thinned to the
  // instantaneous rate below, so the gap-draw stream is a function of the
  // plan's peak alone — never of which segment a candidate lands in.
  double mean_us =
      static_cast<double>(params_.logical_clients) / params_.open_mops;
  if (trace_ != nullptr) {
    mean_us /= trace_->peak_rate();
  }
  const double u = lc->rng.NextDouble();
  const double gap_us = -std::log(1.0 - u) * mean_us;
  SimTime dt = FromMicros(gap_us);
  if (dt < kNanos) {
    dt = kNanos;
  }
  sim_->In(dt, [this, lc] {
    if (stopped_) {
      return;
    }
    if (trace_ != nullptr) {
      const double rate = trace_->RateAt(sim_->now());
      const double peak = trace_->peak_rate();
      if (rate < peak) {
        // Exact thinning: accept with probability rate/peak. The draw is
        // consumed only in sub-peak segments, so a flat trace consumes no
        // extra draws at all (pre-trace byte identity).
        const double a = lc->rng.NextDouble();
        if (a * peak >= rate) {
          ++thinned_;
          ScheduleArrival(lc);
          return;
        }
      }
    }
    IssueOne(lc);
    ScheduleArrival(lc);
  });
}

void ClientFleet::IssueOne(Logical* lc) {
  KvRequest req;
  req.client = lc->id;
  req.seq = lc->seq++;
  req.rank = zipf_->RankOf(lc->rng.NextDouble());
  req.size_class = mix_.ClassOf(lc->rng.NextDouble());
  if (trace_ != nullptr) {
    const SimTime now = sim_->now();
    const uint64_t churn = trace_->ChurnAt(now);
    if (churn != 0) {
      // Working-set rotation: the drawn popularity order is preserved but
      // re-seated over the keyspace, so formerly SoC-resident hot ranks
      // miss. Draw-free by design.
      req.rank = (req.rank + churn) % zipf_->items();
    }
    if (trace_->has_scan()) {
      // One scan draw per issue whenever *any* segment scans, even in
      // segments whose scan is 0: the stream layout stays a function of
      // the plan, never of time.
      if (lc->rng.NextDouble() < trace_->ScanAt(now)) {
        req.size_class = static_cast<int>(class_bytes_.size()) - 1;
        ++scan_forced_;
      }
    }
    ++phase_generated_[static_cast<size_t>(trace_->SegmentAt(now))];
  }
  req.bytes = class_bytes_[static_cast<size_t>(req.size_class)];
  req.hdr = header_(req.rank, req.size_class);
  ++generated_;

  if (resil_ != nullptr) {
    IssueResilient(lc, req);
    return;
  }

  const int path = route_(req);
  SNIC_CHECK_GE(path, 0);
  SNIC_CHECK_LT(static_cast<size_t>(path), paths_.size());
  ++issued_;
  ++path_issued_[static_cast<size_t>(path)];

  PostCopy(NewCopy(lc, req, /*hs=*/nullptr, path, path, sim_->now()));
}

void ClientFleet::IssueResilient(Logical* lc, KvRequest req) {
  const SimTime now = sim_->now();
  req.deadline = resil_->StampDeadline(now);
  const int routed = route_(req);
  SNIC_CHECK_GE(routed, 0);
  SNIC_CHECK_LT(static_cast<size_t>(routed), paths_.size());

  if (!resil_->Admit(routed, req.size_class, req.deadline, now)) {
    ++shed_;
    ++path_shed_[static_cast<size_t>(routed)];
    if (trace_ != nullptr) {
      ++phase_shed_[static_cast<size_t>(trace_->SegmentAt(now))];
    }
    if (shed_observer_) {
      shed_observer_(routed, req);
    }
    if (!params_.open_loop) {
      // A delayed re-pump, never an immediate one: shedding at the same sim
      // time would spin the closed loop against a controller whose signal
      // cannot have moved yet.
      sim_->In(kShedBackoff, [this, lc] {
        lc->in_flight -= 1;
        Pump(lc);
      });
    }
    return;
  }

  ++issued_;
  ++path_issued_[static_cast<size_t>(routed)];
  HedgeState* hs = hedges_.Alloc();
  hs->settled = false;
  hs->outstanding = 1;
  hs->refs = 0;
  PostCopy(NewCopy(lc, req, hs, routed, routed, now));

  if (static_cast<size_t>(resilience::kEndpointCount) <= paths_.size() &&
      resil_->HedgeEligible(routed, req.bytes)) {
    // The jitter draw happens at issue time whether or not the duplicate
    // eventually launches, so the draw stream depends only on issue order.
    const SimTime hedge_delay = resil_->HedgeDelay(routed);
    const int hpath = resilience::ResilienceManager::OtherEndpoint(routed);
    Copy* h = NewCopy(lc, req, hs, routed, hpath, now);
    sim_->In(hedge_delay, [this, h] { LaunchHedge(h); });
  }
}

void ClientFleet::LaunchHedge(Copy* h) {
  HedgeState* const hs = h->hs;
  // No duplicate when the original already answered (or the run is
  // draining), the deadline budget is gone, or the other endpoint's
  // breaker is open.
  if (hs->settled || stopped_ || (h->req.deadline > 0 && sim_->now() >= h->req.deadline) ||
      !resil_->EndpointAvailable(h->copy)) {
    FreeCopy(h);
    return;
  }
  hs->outstanding += 1;
  resil_->OnHedgeLaunched();
  ++issued_;
  ++path_issued_[static_cast<size_t>(h->copy)];
  PostCopy(h);
}

ClientFleet::Copy* ClientFleet::NewCopy(Logical* lc, const KvRequest& req, HedgeState* hs,
                                        int routed, int copy, SimTime issued_at) {
  Copy* c = copies_.Alloc();
  c->lc = lc;
  c->req = req;
  c->hs = hs;
  c->routed = routed;
  c->copy = copy;
  c->issued_at = issued_at;
  if (hs != nullptr) {
    ++hs->refs;
  }
  return c;
}

void ClientFleet::FreeCopy(Copy* c) {
  if (HedgeState* const hs = c->hs; hs != nullptr && --hs->refs == 0) {
    hedges_.Free(hs);
  }
  copies_.Free(c);
}

void ClientFleet::PostCopy(Copy* c) {
  TargetSpec spec = paths_[static_cast<size_t>(c->copy)];
  spec.payload = kRequestBytes;
  // Without the retransmission engine a lost copy never settles; its
  // record still goes back to the pool.
  machines_[static_cast<size_t>(c->lc->machine)]->Post(
      c->lc->thread, spec, c->req.hdr,
      WithDiscard([this, c](SimTime completed, bool ok) { Settle(c, completed, ok); },
                  [this, c] { FreeCopy(c); }),
      c->req.deadline);
}

void ClientFleet::Settle(Copy* c, SimTime completed, bool ok) {
  if (HedgeState* const hs = c->hs; hs != nullptr) {
    hs->outstanding -= 1;
    // A copy that lost the race, or failed while another copy still races,
    // is cancelled; the survivor settles the request.
    if (hs->settled || (!ok && hs->outstanding > 0)) {
      ++cancelled_;
      ++path_cancelled_[static_cast<size_t>(c->copy)];
      resil_->OnHedgeCancel();
      FreeCopy(c);
      return;
    }
    hs->settled = true;
    if (ok && c->copy != c->routed) {
      resil_->OnHedgeWin();
    }
  }
  Finish(c->routed, c->copy, c->req, c->issued_at, completed, ok);
  Logical* const lc = c->lc;
  FreeCopy(c);
  if (!params_.open_loop) {
    lc->in_flight -= 1;
    Pump(lc);
  }
}

size_t ClientFleet::live_records() const {
  size_t n = copies_.live() + hedges_.live();
  for (const auto& m : machines_) {
    n += m->live_flights();
  }
  return n;
}

void ClientFleet::Finish(int routed, int copy, const KvRequest& req,
                         SimTime issued_at, SimTime completed, bool ok) {
  if (ok) {
    ++completed_;
    ++path_completed_[static_cast<size_t>(copy)];
    if (req.deadline == 0 || completed <= req.deadline) {
      ++good_;
    } else {
      ++late_;
    }
  } else {
    ++failed_;
    ++path_failed_[static_cast<size_t>(copy)];
    if (req.deadline > 0 && completed >= req.deadline) {
      ++deadline_failed_;
    }
  }
  if (observe_) {
    // The observer hears the *routed* path so policy in-flight accounting
    // pairs with the Router's decision even when a hedge copy won.
    observe_(routed, req, completed - issued_at, ok);
  }
}

void ClientFleet::RegisterMetrics(MetricsRegistry* reg) {
  using F = ClientFleet;
  static constexpr MetricsRegistry::Row<F> kRows[] = {
      {"issued", "count", [](const F& f) -> double { return f.issued_; }},
      {"completed", "count", [](const F& f) -> double { return f.completed_; }},
      {"failed", "count", [](const F& f) -> double { return f.failed_; }},
  };
  // Resilience counters exist only when a manager is attached (attach it
  // before registering), so resilience-free metric dumps stay byte-identical.
  static constexpr MetricsRegistry::Row<F> kResilienceRows[] = {
      {"shed", "count", [](const F& f) -> double { return f.shed_; }},
      {"cancelled", "count", [](const F& f) -> double { return f.cancelled_; }},
      {"good", "count", [](const F& f) -> double { return f.good_; }},
      {"late", "count", [](const F& f) -> double { return f.late_; }},
      {"deadline_failed", "count", [](const F& f) -> double { return f.deadline_failed_; }},
  };
  // Trace counters exist only when a trace is attached (attach before
  // registering), so trace-free metric dumps stay byte-identical.
  static constexpr MetricsRegistry::Row<F> kTraceRows[] = {
      {"thinned", "count", [](const F& f) -> double { return f.thinned_; }},
      {"scan_forced", "count", [](const F& f) -> double { return f.scan_forced_; }},
  };
  reg->Register(prefix_, *this, kRows);
  if (resil_ != nullptr) {
    reg->Register(prefix_, *this, kResilienceRows);
  }
  if (trace_ != nullptr) {
    reg->Register("trace", *this, kTraceRows);
  }
  for (auto& m : machines_) {
    m->RegisterMetrics(reg);
  }
}

}  // namespace snicsim
