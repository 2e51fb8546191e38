// MPCI message envelope: the wire-level header that rides in front of every
// point-to-point message (in the byte stream for the native stack; as the
// LAPI user header for MPI-LAPI).
//
// Packed to exactly 32 bytes. The total per-packet header asymmetry the
// paper notes (MPI-LAPI's headers are larger because LAPI is an exposed
// interface) comes from the transport headers: lapi_header_bytes (40) vs
// pipe_header_bytes (24) in MachineConfig.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace sp::mpci {

enum class EnvKind : std::uint8_t {
  kEager = 1,    ///< Eager-protocol message (payload follows / rides along).
  kRts = 2,      ///< Rendezvous request-to-send (no payload).
  kCts = 3,      ///< Rendezvous clear-to-send (receive got posted).
  kRtsData = 4,  ///< Rendezvous data (routed by rreq, no matching).
  kRecvDone = 5, ///< Receiver-side completion notification (buffered mode).
  kEaCredit = 6, ///< EA flow control: receiver returns early-arrival credit.
  kEaNack = 7,   ///< EA flow control: eager refused (EA full); fail over to RTS.
  kRingCredit = 8, ///< RDMA: receiver returns `len` freed eager-ring slots.
};

enum EnvFlags : std::uint8_t {
  kFlagReady = 1,       ///< Ready-mode: fatal if no receive is posted.
  kFlagNotifyDone = 2,  ///< Sender wants a kRecvDone when fully received.
  kFlagWantCredit = 4,  ///< Sender is above half its EA share; credit it back.
  kFlagNackServed = 8,  ///< kRtsData serving a NACKed eager (credit on arrival).
};

struct Envelope {
  std::uint16_t ctx = 0;       ///< Communicator context id.
  std::uint16_t src = 0;       ///< Sender rank (within ctx == task id here).
  std::int32_t tag = 0;
  std::uint32_t seq = 0;       ///< Per-(src task, dst task) send order, shared
                               ///< across contexts (non-overtaking).
  std::uint32_t len = 0;       ///< Message payload length.
  std::uint32_t sreq = 0;      ///< Sender-side request id (for CTS / RecvDone).
  std::uint32_t rreq = 0;      ///< Receiver-side request id (for RtsData).
  std::uint16_t cntr_slot = 0; ///< Counter-ring slot (MPI-LAPI "Counters" version).
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(Envelope) == 32, "envelope must pack to 32 bytes");

[[nodiscard]] inline std::vector<std::byte> pack(const Envelope& e) {
  std::vector<std::byte> out(sizeof(Envelope));
  std::memcpy(out.data(), &e, sizeof(Envelope));
  return out;
}

[[nodiscard]] inline Envelope unpack(const std::byte* p) {
  Envelope e;
  std::memcpy(&e, p, sizeof(Envelope));
  return e;
}

}  // namespace sp::mpci
