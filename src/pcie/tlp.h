// PCIe transaction-layer packet (TLP) accounting.
//
// A DMA burst of N payload bytes is segmented into ceil(N / MTU) memory
// TLPs, where the MTU (maximum payload size) is negotiated per endpoint at
// bootstrap (paper Table 3: 512 B for the host PCIe controller, 128 B for
// the BlueField-2 SoC). Each TLP additionally carries framing + DLL + header
// + LCRC overhead bytes on the wire, which is why a 256 Gbps link delivers
// well under 256 Gbps of payload.
#ifndef SRC_PCIE_TLP_H_
#define SRC_PCIE_TLP_H_

#include <algorithm>
#include <cstdint>

#include "src/common/units.h"

namespace snicsim {

// Wire overhead per TLP: 2 B start/end framing + 6 B sequence/LCRC at the
// data-link layer + a 3-DW (12 B) header + ECRC. We fold DLLP flow-control
// traffic into the same constant. (Neugebauer et al., SIGCOMM'18.)
inline constexpr uint32_t kTlpOverheadBytes = 26;

// Payload-less TLPs (read requests, doorbells, interrupts) still occupy the
// header + overhead on the wire.
inline constexpr uint32_t kTlpHeaderBytes = 12;

// Common negotiated maximum-payload sizes (paper Table 3).
inline constexpr uint32_t kHostPcieMtu = 512;
inline constexpr uint32_t kSocPcieMtu = 128;

constexpr uint64_t NumTlps(uint64_t payload_bytes, Divisor mtu) {
  if (payload_bytes == 0) {
    return 1;  // a zero-byte transaction is still one header-only TLP
  }
  return mtu.CeilDiv(payload_bytes);
}

// Total bytes a segmented burst occupies on the wire.
constexpr uint64_t WireBytes(uint64_t payload_bytes, Divisor mtu) {
  return payload_bytes + NumTlps(payload_bytes, mtu) * kTlpOverheadBytes;
}

// One burst's segmentation, computed once and read by every hop it crosses.
struct Segmentation {
  uint64_t tlps = 0;        // NumTlps
  uint64_t wire = 0;        // WireBytes
  uint64_t head_wire = 0;   // wire bytes of the head (first) TLP
};

constexpr Segmentation Segment(uint64_t payload_bytes, Divisor mtu) {
  Segmentation s;
  s.tlps = NumTlps(payload_bytes, mtu);
  s.wire = payload_bytes + s.tlps * kTlpOverheadBytes;
  s.head_wire = std::min<uint64_t>(payload_bytes, mtu.value()) + kTlpOverheadBytes;
  return s;
}

// Wire bytes of a single header-only (control) TLP.
constexpr uint64_t ControlWireBytes() { return kTlpHeaderBytes + kTlpOverheadBytes; }

}  // namespace snicsim

#endif  // SRC_PCIE_TLP_H_
