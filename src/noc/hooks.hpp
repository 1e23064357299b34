// Interfaces through which the mitigation layer (threat detector, L-Ob
// controller) and the verification layer (invariant auditor) plug into the
// router datapath. The NoC substrate only knows these interfaces; the real
// implementations live in src/mitigation and src/verify and are wired in by
// the simulator, keeping the layering acyclic (noc <- mitigation, verify).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "ecc/secded.hpp"
#include "noc/flit.hpp"

namespace htnoc {

/// Everything the receiving router knows about one faulty/clean arrival:
/// the decode report (syndrome), the flit's packet characteristics, how it
/// was obfuscated and which transmission attempt this was. Mirrors the
/// fields the paper's threat detector records (Sec. IV-B).
struct FaultObservation {
  Cycle now = 0;
  RouterId receiver = kInvalidRouter;
  int in_port = 0;
  Flit flit;
  ecc::DecodeResult ecc;
  ObfuscationTag obf;
  int attempt = 0;
};

/// What the threat detector piggybacks on a NACK for the upstream router.
struct NackAdvice {
  /// Enable (or advance to the next) switch-to-switch obfuscation method on
  /// the retransmission — the fault pattern looks targeted, not random.
  bool escalate_obfuscation = false;
  /// A BIST scan of the link has been dispatched (repetitive faults might be
  /// a permanent wire failure).
  bool request_bist = false;
};

/// Receiver-side threat detection (Fig. 6 decision flow).
class ThreatDetector {
 public:
  virtual ~ThreatDetector() = default;
  /// ECC detected an uncorrectable error; decide the NACK advice.
  virtual NackAdvice on_uncorrectable(const FaultObservation& obs) = 0;
  /// ECC corrected a single-bit error (transient-fault bookkeeping).
  virtual void on_corrected(const FaultObservation& obs) = 0;
  /// Flit arrived clean (possibly obfuscated; success is logged upstream
  /// through the ACK, this is for receiver-side statistics).
  virtual void on_clean(const FaultObservation& obs) = 0;
};

/// Upstream-side L-Ob obfuscation planner attached to an output port's
/// retransmission buffers (Fig. 4 decision flow).
class LObController {
 public:
  virtual ~LObController() = default;
  /// Choose the obfuscation for one transmission attempt. `escalate` is the
  /// accumulated advice from NACKs of this flit; `partner_available` tells
  /// whether the retransmission buffer holds another flit to scramble with.
  /// When the returned tag is kScramble the caller fills in the partner id.
  [[nodiscard]] virtual ObfuscationTag plan(Cycle now, const Flit& flit, int attempt,
                                            bool escalate, bool partner_available) = 0;
  /// Transmission attempt was ACKed; a non-none tag means the method worked
  /// and is logged for future flits with the same characteristics.
  virtual void on_ack(Cycle now, const Flit& flit, const ObfuscationTag& tag) = 0;
  /// Transmission attempt was NACKed with this tag.
  virtual void on_nack(Cycle now, const Flit& flit, const ObfuscationTag& tag) = 0;
};

/// Where a resident flit was found by the audit census, the walk over the
/// whole fabric that names the site of a violation (see
/// Network::collect_resident; a clean audit runs Network::audit_walk).
enum class FlitSite : std::uint8_t {
  kInputBuffer,      ///< Router/NI input VC buffer.
  kScrambleStation,  ///< Held awaiting its scramble partner.
  kRetransSlot,      ///< Output-port retransmission buffer.
  kLinkPhit,         ///< In flight on a link's forward wires.
  kNiSourceQueue,    ///< Queued at an NI injection port.
};

[[nodiscard]] constexpr const char* to_string(FlitSite s) noexcept {
  switch (s) {
    case FlitSite::kInputBuffer: return "input_buffer";
    case FlitSite::kScrambleStation: return "scramble_station";
    case FlitSite::kRetransSlot: return "retrans_slot";
    case FlitSite::kLinkPhit: return "link_phit";
    case FlitSite::kNiSourceQueue: return "ni_source_queue";
  }
  return "?";
}

/// One census observation: flit `uid` of `packet` found at `site`.
/// `node` is the owning router (or core for NI/local-link sites), `port`
/// the router port or direction, -1 when not applicable. A flit may
/// legitimately appear at several sites at once (retransmission slot +
/// link phit, or slot + receiver buffer with the ACK in flight).
struct ResidentFlit {
  std::uint64_t uid = 0;
  PacketId packet = kInvalidPacket;
  FlitSite site = FlitSite::kInputBuffer;
  std::uint16_t node = 0;
  std::int8_t port = -1;
};

/// Exactly-once flit accounting hooks. The network and its NIs notify the
/// observer of every event that changes a flit's lifecycle state; the
/// audit walk (Network::audit_walk) provides the other half of the ledger,
/// and the census (Network::collect_resident) reports what it finds wrong.
/// Implemented by verify::NetworkInvariantAuditor; the substrate only pays
/// a null-pointer check when no auditor is installed.
class FlitAuditObserver {
 public:
  virtual ~FlitAuditObserver() = default;
  /// A packet was accepted into an NI source queue; all `info.length`
  /// flit uids become resident.
  virtual void on_packet_injected(Cycle now, const PacketInfo& info) = 0;
  /// One flit was consumed by the destination NI's ejection sink.
  virtual void on_flit_delivered(Cycle now, const Flit& flit) = 0;
  /// Packet `p` was purged network-wide; `uids` lists the distinct flits
  /// actually removed (sorted ascending, deduplicated).
  virtual void on_flits_purged(Cycle now, PacketId p,
                               const std::vector<std::uint64_t>& uids) = 0;
};

}  // namespace htnoc
