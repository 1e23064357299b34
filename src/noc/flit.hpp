// Flits, packets and the phit that crosses a link each cycle.
//
// A Flit carries both the authoritative 64-bit wire image (what hardware —
// including a trojan — can see) and simulator-only sideband metadata used
// for bookkeeping, statistics and correctness checks. Obfuscation and ECC
// act on the wire image; sideband never touches a wire.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "noc/wire.hpp"

namespace htnoc {

/// Immutable description of a packet, shared by all of its flits.
struct PacketInfo {
  PacketId id = kInvalidPacket;
  NodeId src_core = kInvalidNode;
  NodeId dest_core = kInvalidNode;
  RouterId src_router = kInvalidRouter;
  RouterId dest_router = kInvalidRouter;
  std::uint32_t mem_addr = 0;
  PacketClass pclass = PacketClass::kData;
  TdmDomain domain = TdmDomain::kD1;
  /// Originating thread/process id carried in the header (6 bits on the
  /// wire). Defaults to the source core when left at kAutoThread.
  std::uint8_t thread = kAutoThread;
  int length = 1;  ///< Number of flits.
  Cycle inject_cycle = 0;

  static constexpr std::uint8_t kAutoThread = 0xFF;
};

/// One flit. Copyable value type; buffers own their flits.
struct Flit {
  // --- sideband (simulator bookkeeping; not on the wire) ---
  PacketId packet = kInvalidPacket;
  int seq = 0;  ///< Index within the packet, 0-based.
  FlitType type = FlitType::kHeadTail;
  NodeId src_core = kInvalidNode;
  NodeId dest_core = kInvalidNode;
  RouterId src_router = kInvalidRouter;
  RouterId dest_router = kInvalidRouter;
  std::uint32_t mem_addr = 0;
  PacketClass pclass = PacketClass::kData;
  TdmDomain domain = TdmDomain::kD1;
  std::uint8_t thread = 0;
  int length = 1;
  Cycle inject_cycle = 0;
  VcId vc = 0;              ///< Current VC assignment (rewritten per hop).
  bool route_phase_down = false;  ///< up*/down* phase bit (set after a down hop).

  // --- wire image ---
  std::uint64_t wire = 0;  ///< The 64 data bits as transmitted (pre-obfuscation).

  [[nodiscard]] bool is_head() const noexcept { return htnoc::is_head(type); }
  [[nodiscard]] bool is_tail() const noexcept { return htnoc::is_tail(type); }

  /// Globally unique identity of this flit (packet, seq).
  [[nodiscard]] std::uint64_t flit_uid() const noexcept {
    return uid_of(packet, seq);
  }
  [[nodiscard]] static constexpr std::uint64_t uid_of(PacketId packet,
                                                      int seq) noexcept {
    return (packet << 8) ^ static_cast<std::uint64_t>(seq & 0xFF);
  }
};

/// How a phit was obfuscated before ECC encoding (Sec. IV-A of the paper).
/// This tag models the side-band notification between the upstream L-Ob
/// module and the downstream de-obfuscator; the wire itself only carries the
/// transformed codeword.
enum class ObfMethod : std::uint8_t {
  kNone = 0,
  kInvert,    ///< Bitwise complement inside the granularity window.
  kShuffle,   ///< Fixed rotation inside the granularity window.
  kScramble,  ///< XOR with a partner flit's wire image.
  kReorder,   ///< Scheduling-only: hold this flit and let later flits go
              ///< first (paper Sec. I "flit-reordering"). Defeats triggers
              ///< keyed on transmission order/position; content-keyed
              ///< trojans like TASP are unaffected by it.
};

enum class ObfGranularity : std::uint8_t {
  kFlit = 0,  ///< All 64 wire bits.
  kHeader,    ///< Low 42 bits (the DPI target region).
  kPayload,   ///< High 22 bits.
};

struct ObfuscationTag {
  ObfMethod method = ObfMethod::kNone;
  ObfGranularity granularity = ObfGranularity::kFlit;
  /// For kScramble: identity of the partner flit whose wire image was XORed.
  PacketId partner_packet = kInvalidPacket;
  int partner_seq = 0;

  [[nodiscard]] bool active() const noexcept { return method != ObfMethod::kNone; }
};

/// The unit that crosses a link in one cycle: a 72-bit SECDED codeword plus
/// sideband metadata.
struct LinkPhit {
  Flit flit;             ///< Owner flit (sideband copy).
  Codeword72 codeword;   ///< ECC(obfuscate(flit.wire)) after fault injection.
  ObfuscationTag obf;    ///< Control-channel obfuscation notification.
  Cycle sent_cycle = 0;  ///< Cycle LT began.
  int attempt = 0;       ///< 0 for first transmission, >0 for retransmissions.
};

/// Split a packet into flits with correctly packed wire images. The head
/// flit's wire word carries the header fields; body/tail flits carry payload
/// words (caller-provided or synthesized), each stamped with its flit type.
[[nodiscard]] std::vector<Flit> packetize(const PacketInfo& info,
                                          const std::vector<std::uint64_t>& payload);

std::string to_string(ObfMethod m);
std::string to_string(ObfGranularity g);

}  // namespace htnoc
