// Sharded multi-client request generator for the KV serving workload.
//
// A ClientFleet multiplexes thousands of *logical* clients over a small
// pool of requester machines (each a ClientMachine: one client NIC, a QP
// pool of posting threads) — the way a real scale-out tier runs thousands
// of application connections over a few physical hosts. Each logical
// client draws its key rank from a shared Zipf distribution and its value
// size from a mixture, then asks a Router which communication path the
// request should take: client→host (①) or client→SoC (②). That hook is
// what the path-selection governor (src/governor) plugs into.
//
// Determinism contract: every logical client owns a private Rng stream
// seeded from (fleet seed, client id) only, and draws from it in its own
// program order. Streams never depend on cross-client completion
// interleaving, so a run is byte-identical for a given seed regardless of
// how sweep points are scheduled (--jobs). Routed requests are conserved:
// each one terminates exactly once — completed on the path it was routed
// to, or failed after the reliability layer exhausts retry_cnt.
#ifndef SRC_WORKLOAD_FLEET_H_
#define SRC_WORKLOAD_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/resilience/resilience.h"
#include "src/sim/pool.h"
#include "src/sim/simulator.h"
#include "src/topo/fabric.h"
#include "src/workload/addr_gen.h"
#include "src/workload/client.h"
#include "src/workload/trace/trace.h"

namespace snicsim {

// Discrete value-size mixture: class i is drawn with weight weights[i] and
// carries class_bytes[i] payload bytes (the layout's class table).
struct SizeMixture {
  std::vector<double> weights;  // need not be normalized

  // Maps a uniform u in [0, 1) to a class index by cumulative weight.
  int ClassOf(double u) const;

  static SizeMixture Single() { return SizeMixture{{1.0}}; }
};

// One generated KV request, as seen by the Router and the Observer.
struct KvRequest {
  uint64_t client = 0;  // logical client id
  uint64_t seq = 0;     // per-client issue sequence number
  uint64_t rank = 0;    // Zipf popularity rank (0 = hottest)
  int size_class = 0;   // index into the layout's class table
  uint32_t bytes = 0;   // reply value bytes
  uint64_t hdr = 0;     // packed header delivered to the executor
  SimTime deadline = 0;  // absolute latency budget; 0 = none
};

// Request SEND payload (the GET/PUT header), for the fleet and the rack
// alike. The *reply* carries the drawn value size; the request itself stays
// small like a real KV get.
inline constexpr uint32_t kRequestBytes = 64;

struct FleetParams {
  int machines = 4;        // physical requester machines (QP pools)
  ClientParams machine;    // per-machine NIC/CPU parameters
  int logical_clients = 1024;
  int window = 1;          // closed-loop outstanding ops per logical client
  bool open_loop = false;  // Poisson arrivals instead of a closed loop
  double open_mops = 1.0;  // aggregate arrival rate (Mops) when open-loop
  uint64_t seed = 42;
};

class ClientFleet {
 public:
  // Returns the index of the path (into the `paths` vector handed to
  // Start) this request is routed to.
  using Router = std::function<int(const KvRequest&)>;
  // Encodes (rank, size class) into the 64-bit header / simulated address
  // the executor decodes (kv::ServingLayout::Pack, kept abstract here so
  // the workload layer does not depend on the kvstore layer).
  using HeaderFn = std::function<uint64_t(uint64_t rank, int size_class)>;
  // Fires exactly once per routed request: ok=true with its end-to-end
  // latency, ok=false when the reliability layer gave up.
  using Observer = std::function<void(int path, const KvRequest&, SimTime latency, bool ok)>;

  ClientFleet(Simulator* sim, Fabric* fabric, const FleetParams& params,
              const std::string& prefix = "fleet");

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  // Starts every logical client; runs until StopIssuing().
  // `paths[i].payload` is ignored — every request SEND carries
  // kRequestBytes; the reply carries the drawn value size.
  // `class_bytes` is the size-class table (parallel to `mix.weights`).
  void Start(std::vector<TargetSpec> paths, const ZipfDist* zipf,
             const SizeMixture& mix, std::vector<uint32_t> class_bytes,
             HeaderFn header, Router route, Observer observe);

  // Hooks the overload-protection layer in *before* Start. With a manager
  // set, every generated request is deadline-stamped and passes admission
  // control after routing; refused requests are shed (counted, observed via
  // the shed observer, never posted), and small requests may be hedged onto
  // the other path. Null (the default) keeps the issue path byte-identical
  // to the pre-resilience fleet.
  void SetResilience(resilience::ResilienceManager* resil) { resil_ = resil; }
  // Fires once per shed request with the path routing chose; the harness
  // uses it to unwind the policy's in-flight accounting.
  using ShedObserver = std::function<void(int path, const KvRequest&)>;
  void SetShedObserver(ShedObserver observer) { shed_observer_ = std::move(observer); }

  // Attaches a non-stationary load trace *before* Start. Open-loop arrival
  // gaps shrink to the trace's peak rate and each candidate is thinned to
  // the instantaneous rate (one counted accept draw, consumed only in
  // segments below the peak); drawn Zipf ranks rotate by the segment's
  // churn (draw-free); when any segment has scan > 0 every issue consumes
  // one scan draw that may force the top size class. A flat trace (rate 1,
  // churn 0, scan 0 everywhere) therefore consumes zero extra draws and
  // replays byte-identically to a trace-free fleet. Null (the default)
  // keeps the pre-trace issue path untouched. Rate thinning applies only
  // to open-loop fleets; churn and scan modulate closed loops too.
  void SetTrace(const trace::TraceDriver* trace);

  // Stops new issues (closed loops stop re-pumping, open-loop arrival
  // chains end). In-flight requests still terminate, so running the
  // simulation dry afterwards gives exact conservation:
  // generated == issued - hedge launches + shed (each launched hedge adds
  // one extra wire copy to issued) and issued == completed + failed +
  // cancelled (without a resilience manager, shed == cancelled == 0).
  void StopIssuing() { stopped_ = true; }

  // Conservation counters (see StopIssuing), plus the per-path splits which
  // sum to the totals. `completed`/`failed`/`cancelled` count wire copies:
  // a hedged request settles exactly one copy as completed-or-failed and
  // cancels the rest.
  uint64_t generated() const { return generated_; }
  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  uint64_t shed() const { return shed_; }
  uint64_t cancelled() const { return cancelled_; }
  // Deadline classification of settled requests: good (ok, within budget),
  // late (ok, past budget), deadline_failed (failed with the budget gone —
  // a subset of failed()). good + late == completed.
  uint64_t good() const { return good_; }
  uint64_t late() const { return late_; }
  uint64_t deadline_failed() const { return deadline_failed_; }
  // Trace-modulation counters (zero without a trace): candidates rejected
  // by rate thinning, issues whose size class a scan phase forced, and
  // per-trace-segment splits of generated / shed (the metamorphic suite's
  // per-phase ledgers). Thinned candidates are not generated.
  uint64_t thinned() const { return thinned_; }
  uint64_t scan_forced() const { return scan_forced_; }
  const std::vector<uint64_t>& phase_generated() const { return phase_generated_; }
  const std::vector<uint64_t>& phase_shed() const { return phase_shed_; }
  const std::vector<uint64_t>& path_issued() const { return path_issued_; }
  const std::vector<uint64_t>& path_completed() const { return path_completed_; }
  const std::vector<uint64_t>& path_failed() const { return path_failed_; }
  const std::vector<uint64_t>& path_shed() const { return path_shed_; }
  const std::vector<uint64_t>& path_cancelled() const { return path_cancelled_; }

  int machine_count() const { return static_cast<int>(machines_.size()); }
  ClientMachine& machine(int i) { return *machines_[static_cast<size_t>(i)]; }

  // Per-request records still held (wire copies, hedge states and the
  // machines' flights); zero once a stopped fleet has drained.
  size_t live_records() const;

  // Exposes fleet totals under "<prefix>" plus each machine's counters.
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  struct Logical {
    uint64_t id = 0;
    int machine = 0;
    int thread = 0;
    Rng rng;
    uint64_t seq = 0;
    int in_flight = 0;
  };

  // Settlement state of one resilient (possibly hedged) request: first
  // terminal copy wins, the rest cancel. Pooled; `refs` counts the Copy
  // records that point at it.
  struct HedgeState {
    bool settled = false;
    int outstanding = 0;
    int refs = 0;
  };

  // One wire copy of a request, from its post (or its pending hedge timer)
  // to its settlement. `hs` is null outside the resilience layer.
  struct Copy {
    Logical* lc = nullptr;
    KvRequest req;
    HedgeState* hs = nullptr;
    int routed = 0;
    int copy = 0;
    SimTime issued_at = 0;
  };

  void Pump(Logical* lc);
  void IssueOne(Logical* lc);
  void IssueResilient(Logical* lc, KvRequest req);
  void ScheduleArrival(Logical* lc);
  Copy* NewCopy(Logical* lc, const KvRequest& req, HedgeState* hs, int routed, int copy,
                SimTime issued_at);
  void FreeCopy(Copy* c);
  // Posts the wire copy `c` onto its target and settles it when it
  // terminates.
  void PostCopy(Copy* c);
  // The hedge timer of `h` fired: launch the duplicate or drop it.
  void LaunchHedge(Copy* h);
  void Settle(Copy* c, SimTime completed, bool ok);
  // `routed` is the path the Router chose (what the Observer hears);
  // `copy` is the path this wire copy actually took (what the per-path
  // counters record) — they differ only for a winning hedge.
  void Finish(int routed, int copy, const KvRequest& req, SimTime issued_at,
              SimTime completed, bool ok);

  Simulator* sim_;
  FleetParams params_;
  std::string prefix_;
  std::vector<std::unique_ptr<ClientMachine>> machines_;
  // Reserved to logical_clients in Start and never grown after, so the
  // Logical* its event closures capture stay valid.
  std::vector<Logical> logicals_;
  SlabPool<Copy> copies_;
  SlabPool<HedgeState> hedges_;

  std::vector<TargetSpec> paths_;
  const ZipfDist* zipf_ = nullptr;
  SizeMixture mix_;
  std::vector<uint32_t> class_bytes_;
  HeaderFn header_;
  Router route_;
  Observer observe_;
  resilience::ResilienceManager* resil_ = nullptr;
  ShedObserver shed_observer_;
  const trace::TraceDriver* trace_ = nullptr;

  bool stopped_ = false;
  uint64_t generated_ = 0;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t shed_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t good_ = 0;
  uint64_t late_ = 0;
  uint64_t deadline_failed_ = 0;
  uint64_t thinned_ = 0;
  uint64_t scan_forced_ = 0;
  std::vector<uint64_t> phase_generated_;
  std::vector<uint64_t> phase_shed_;
  std::vector<uint64_t> path_issued_;
  std::vector<uint64_t> path_completed_;
  std::vector<uint64_t> path_failed_;
  std::vector<uint64_t> path_shed_;
  std::vector<uint64_t> path_cancelled_;
};

}  // namespace snicsim

#endif  // SRC_WORKLOAD_FLEET_H_
