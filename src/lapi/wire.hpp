// LAPI wire format: the message kinds carried in PktHdr::kind.
//
// LAPI packets use the reliable link's message framing (hal/reliable_link.hpp):
// a LinkHdr, then a full PktHdr on every packet so any packet of a message can
// create reassembly state when packets arrive out of order across the four
// switch routes. Time is charged for the *modeled* header size
// (MachineConfig::lapi_header_bytes), not the struct size.
#pragma once

#include <cstdint>

#include "hal/reliable_link.hpp"

namespace sp::lapi {

using hal::kFlagFirst;
using hal::parse_hdr;
using hal::PktHdr;
using hal::Token;

enum class Kind : std::uint8_t {
  kAm = 1,        ///< LAPI_Amsend data (first packet carries the user header)
  kPut = 2,       ///< LAPI_Put data (target address resolves the buffer)
  kGetReq = 3,    ///< LAPI_Get request (single packet)
  kGetRep = 4,    ///< LAPI_Get reply data (a Put into the origin buffer)
  kRmwReq = 5,    ///< LAPI_Rmw request (single packet)
  kRmwRep = 6,    ///< LAPI_Rmw reply (single packet)
  kCmplNotify = 7,///< Internal: bump the origin-side completion counter
  kGetvReq = 9,   ///< LAPI_Getv request (single packet carrying a block table)
};

}  // namespace sp::lapi
