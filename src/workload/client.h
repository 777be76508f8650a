// CLI requester machines (paper Table 2: 20 nodes, ConnectX-4, 12 usable
// cores) driving closed-loop RDMA workloads against a server.
//
// Each thread keeps `window` unsignaled requests in flight; posting costs a
// WQE build plus a blocking MMIO doorbell, the client NIC adds fixed
// tx/rx overheads plus its own pipeline, and the wire is the shared fabric.
// Peak-throughput experiments instantiate several machines, exactly like
// the paper uses up to eleven requesters to saturate one responder.
//
// Every op enters through Post (the doorbell-batch loop launches its chain
// ops at the NIC instead), and only there does the machine decide whether
// the op carries the retransmission engine (Reliable()); callers see one
// completion shape, cb(completed, ok), either way.
#ifndef SRC_WORKLOAD_CLIENT_H_
#define SRC_WORKLOAD_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/nic/engine.h"
#include "src/nic/verb.h"
#include "src/sim/meter.h"
#include "src/sim/pool.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"
#include "src/sim/timer_wheel.h"
#include "src/topo/fabric.h"
#include "src/workload/addr_gen.h"

namespace snicsim {

struct ClientParams {
  int threads = 12;
  int window = 16;  // outstanding requests (or batches, when batching) per thread
  SimTime wr_build = FromNanos(240);
  SimTime mmio_block = FromNanos(60);    // CPU blocked per doorbell (BlueFlame-style)
  SimTime mmio_flight = FromNanos(200);  // doorbell -> client NIC
  SimTime nic_tx_fixed = FromNanos(150);  // WQE fetch + segmentation
  SimTime nic_rx_fixed = FromNanos(250);  // payload/CQE delivery DMA
  SimTime poll = FromNanos(60);
  // Doorbell batching (Advice #4): one MMIO rings a linked chain of `batch`
  // WQEs; the NIC then DMA-fetches the chain from client memory.
  bool doorbell_batch = false;
  int batch = 16;
  SimTime wqe_fetch = FromNanos(450);  // NIC DMA round trip for the chain
  NicParams nic = NicParams::ConnectX4();

  // --- the retransmission engine (see ClientMachine::Post), active ONLY
  // when the simulation carries a fault injector (sim->faults() != nullptr).
  // Without it a dropped frame would leak a window slot forever and the
  // closed loop would starve. The timeout doubles per retry, up to 64x. ---
  SimTime transport_timeout = FromMicros(120);  // 0 disables even under faults
  int retry_cnt = 7;  // retransmissions before the op fails
};

// What a client hammers: a verb against one endpoint of one server.
struct TargetSpec {
  NicEngine* engine = nullptr;
  NicEndpoint* endpoint = nullptr;
  PcieLink* server_port = nullptr;
  Verb verb = Verb::kRead;
  uint32_t payload = 64;
};

class ClientMachine {
 public:
  ClientMachine(Simulator* sim, Fabric* fabric, const ClientParams& params,
                const std::string& name);

  ClientMachine(const ClientMachine&) = delete;
  ClientMachine& operator=(const ClientMachine&) = delete;

  // Starts all threads in a closed loop against `target`; completed ops are
  // counted on `meter`. Runs for the lifetime of the simulation. Call at
  // most once per machine.
  void Start(const TargetSpec& target, AddressGenerator addr, Meter* meter);

  // Per-op completion: `completed` is when the polling thread sees it.
  using OpCallback = SmallFunction<void(SimTime completed, bool ok)>;

  // Posts a single operation from `thread` (0-based). When Reliable(), the
  // op carries the simulator's one retransmission engine: a transport
  // timeout and bounded-backoff retransmission (NIC-side replays of the
  // posted WQE, with no CPU WQE build or doorbell), and `cb` fires exactly
  // once — ok=true on a (possibly retransmitted) response, ok=false when
  // `retry_cnt` retransmissions all vanished or, with a nonzero absolute
  // `deadline`, as soon as a retry timer fires past it (the op is abandoned
  // without burning the remaining retry budget). Otherwise the op is plain:
  // `deadline` is ignored, ok is always true, and an op whose request or
  // response is lost to fault injection never calls `cb` (a WithDiscard
  // closure runs its drop half instead).
  void Post(int thread, const TargetSpec& target, uint64_t addr, OpCallback cb,
            SimTime deadline = 0);

  // True when ops carry the retransmission engine: only fault-carrying
  // simulations arm it, so with no injector every posting path is
  // byte-identical to the pre-fault code (no extra events, no extra
  // state). Post and the batch path's NIC launch are the only places that
  // branch on it.
  bool Reliable() const {
    return sim_->faults() != nullptr && params_.transport_timeout > 0;
  }

  PcieLink* port() { return port_; }
  Simulator* sim() const { return sim_; }
  const std::string& name() const { return name_; }
  int threads() const { return params_.threads; }
  uint64_t issued() const { return issued_; }
  uint64_t doorbells() const { return doorbells_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t op_failures() const { return op_failures_; }
  uint64_t deadline_failures() const { return deadline_failures_; }

  // Exposes issue-side counters under "<name>".
  void RegisterMetrics(MetricsRegistry* reg);

  // Posted or launched ops whose completion has not fired yet; zero once a
  // run has drained, lost ops included.
  size_t live_flights() const { return flights_.live(); }

 private:
  struct Loop {
    TargetSpec target;
    AddressGenerator addr = AddressGenerator(0, 64);
    Meter* meter = nullptr;
    int thread = 0;
    int in_flight = 0;
  };

  // One posting thread: its CPU and its closed loop (used once Started).
  struct Thread {
    explicit Thread(Simulator* sim) : cpu(sim) {}
    BusyServer cpu;
    Loop loop;
  };

  // One reliable op in flight: `done` makes completion first-wins (a late
  // duplicate response after a retransmission is dropped here). `timer` is
  // the wheel handle of the op's one pending retry timer, so completion
  // cancels it and reclaims the timer record instead of leaving a stale
  // event.
  struct ReliableOp {
    TargetSpec target;
    uint64_t addr = 0;
    int attempts = 0;
    bool done = false;
    SimTime deadline = 0;  // absolute; 0 = unbounded
    TimerWheel::TimerId timer = TimerWheel::kNoTimer;
    OpCallback cb;
  };

  // One attempt from its NIC launch (or its post) to its completion: the
  // stage closures capture only (this, flight). A plain op's callback is
  // the caller's; a reliable attempt's completes its ReliableOp.
  struct Flight {
    TargetSpec target;
    uint64_t addr = 0;
    uint64_t rid = 0;
    SimTime issue_start = 0;
    bool op_span = false;  // trace [post .. completion] as one op span
    OpCallback cb;
  };

  // The trace lane of `thread`'s CPU: "<name>.cpu<thread>".
  std::string CpuLane(int thread) const;
  void Pump(Loop* loop);
  void IssueOne(Loop* loop);
  void IssueBatch(Loop* loop);
  // The batch path's per-op entry, which never rings a per-op doorbell: a
  // NIC launch under the same engine rule as Post.
  void Launch(const TargetSpec& target, uint64_t addr, OpCallback cb, uint64_t req_id);
  std::shared_ptr<ReliableOp> NewReliableOp(const TargetSpec& target, uint64_t addr,
                                            OpCallback cb, SimTime deadline);
  // One attempt's callback: completes `op` (first wins).
  OpCallback Attempt(const std::shared_ptr<ReliableOp>& op);
  void ArmRetry(const std::shared_ptr<ReliableOp>& op);
  void CompleteReliable(const std::shared_ptr<ReliableOp>& op, SimTime completed);
  // The internal hops take the callback by reference, so it is moved once,
  // into its Flight.
  Flight* NewFlight(const TargetSpec& target, uint64_t addr, uint64_t rid, OpCallback&& cb);
  // The CPU half of a post: WQE build and doorbell, then the NIC launch.
  void PostFlight(int thread, const TargetSpec& target, uint64_t addr, OpCallback&& cb);
  // The NIC-side half of a post: pipeline, fabric, responder, completion.
  void LaunchFromNic(const TargetSpec& target, uint64_t addr, OpCallback&& cb,
                     uint64_t req_id);
  void LaunchFlight(Flight* f);
  void ArriveAtServer(Flight* f);
  void FinishFlight(Flight* f);
  // The request or its response was lost: the op ends without completing.
  void DropFlight(Flight* f);

  Simulator* sim_;
  Fabric* fabric_;
  ClientParams params_;
  std::string name_;
  PcieLink* port_;
  BusyServer nic_fe_;
  // Sized once at construction and never resized: scheduled events hold
  // pointers to the loops.
  std::vector<Thread> threads_;
  bool started_ = false;
  SlabPool<Flight> flights_;
  uint64_t issued_ = 0;
  uint64_t doorbells_ = 0;  // MMIO doorbell rings (one per batch when batching)
  uint64_t retransmits_ = 0;  // reliable-layer NIC replays
  uint64_t op_failures_ = 0;  // reliable ops that exhausted retry_cnt
  uint64_t deadline_failures_ = 0;  // reliable ops abandoned past deadline
};

// Convenience: builds `count` identical client machines.
std::vector<std::unique_ptr<ClientMachine>> MakeClients(Simulator* sim, Fabric* fabric,
                                                        const ClientParams& params,
                                                        int count,
                                                        const std::string& prefix = "cli");

}  // namespace snicsim

#endif  // SRC_WORKLOAD_CLIENT_H_
