// Test-only access to Simulator internals (a befriended class).
#ifndef TESTS_SIM_SIMULATOR_TEST_PEER_H_
#define TESTS_SIM_SIMULATOR_TEST_PEER_H_

#include <cstdint>

#include "src/sim/simulator.h"

namespace snicsim {

// Drives next_seq_ to the renumber threshold so tests can cross it without
// 2^31 real schedules.
class SimulatorTestPeer {
 public:
  static void FastForwardSeqToNearRenumber(Simulator& sim, uint32_t headroom) {
    sim.next_seq_ = Simulator::kSeqRenumberAt - headroom;
  }
};

}  // namespace snicsim

#endif  // TESTS_SIM_SIMULATOR_TEST_PEER_H_
