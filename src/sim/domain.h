// Domain identity for the parallel DES core.
//
// A *domain* is the unit of sequential execution: one server machine's whole
// component stack (host CPU, SoC, NIC, local PCIe tree) shares a domain and
// therefore one Simulator, one event queue, and one thread at a time. Fabric
// links are the only edges that cross domains, and every such edge carries at
// least the configured lookahead of latency — that is the conservative-
// synchronization contract ParallelSimulator::Post() enforces.
//
// Thread-safety invariant (enforced by ParallelSimulator's round barrier):
// all state reachable from a domain's events — its Simulator, servers, RNG
// streams, fault-injector, slab pools — is touched only by the thread
// currently running that domain. Cross-domain closures may carry pointers
// from their source domain, but must treat them as opaque handles until the
// closure has travelled back to the owning domain.
#ifndef SRC_SIM_DOMAIN_H_
#define SRC_SIM_DOMAIN_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/sim/callback.h"

namespace snicsim {

// Dense domain index within one ParallelSimulator, assigned in construction
// order. The index participates in the deterministic cross-domain merge
// order, so domain numbering is part of the determinism contract: renumber
// domains and same-timestamp cross-domain ties may legally reorder.
using DomainId = int32_t;

// A cross-domain event buffered in its source domain's outbox during a
// round. `seq` is the per-source emission counter; the merge at the round
// barrier orders events by (time, src, seq), which is a strict total order
// because `seq` never repeats within one source domain.
struct RemoteEvent {
  SimTime time;
  DomainId src;
  DomainId dst;
  uint64_t seq;
  SimCallback cb;
};

}  // namespace snicsim

#endif  // SRC_SIM_DOMAIN_H_
