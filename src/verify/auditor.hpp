// Whole-fabric invariant auditing (the machine-checked half of the paper's
// correctness argument): every injected flit is exactly-once accounted for
// across VC buffers, link phits, retransmission slots, the purge log and
// the NI sinks; credit counters match free buffer slots; retransmission
// slots are never leaked past an ACK or purge; and no router starves past a
// configurable horizon without the saturation detector firing.
//
// The auditor is a FlitAuditObserver: the network pushes lifecycle events
// (injected / delivered / purged) into a per-uid ledger, and on_cycle_end()
// walks a census of every resident flit (Network::collect_resident) against
// that ledger. Anything that does not reconcile becomes a Violation,
// annotated with the tail of the event trace when a sink is attached.
//
// A clean audit costs about one network step: every census flit stamps its
// ledger entry through a uid index, one sweep finds unstamped resident
// entries and retires old ones, the credit check reads only counters on
// idle hops, and the starvation watch visits only VCs with work. It sorts
// nothing, builds no string and allocates nothing. An audit that finds
// anything reports it through one uid-ordered merge, so violation order,
// dedup keys and detail text do not depend on that bookkeeping.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "trace/sink.hpp"

namespace htnoc::verify {

enum class ViolationKind : std::uint8_t {
  kFlitLoss,            ///< Ledger-resident flit absent from the census.
  kDuplicateDelivery,   ///< A flit was consumed by an NI sink twice.
  kPurgeLeak,           ///< Flit of a purged packet still resident.
  kAckSlotLeak,         ///< Delivered flit still resident past the grace.
  kUnknownFlit,         ///< Resident/delivered flit never injected.
  kCreditConservation,  ///< Per-(link, VC) credit accounting broke.
  kSilentStarvation,    ///< Starved VC with no saturation report.
};

[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

struct AuditConfig {
  bool enabled = false;
  /// Audit every `period` cycles (1 = every cycle).
  Cycle period = 1;
  /// Cycles a ready front flit may sit unserved, with no saturation report
  /// on its router, before the auditor calls it silent starvation.
  Cycle deadlock_horizon = 250;
};

struct Violation {
  Cycle cycle = 0;
  ViolationKind kind = ViolationKind::kFlitLoss;
  std::uint64_t uid = 0;             ///< Flit uid, or a kind-specific key.
  PacketId packet = kInvalidPacket;  ///< kInvalidPacket when not per-packet.
  std::string detail;
  /// Tail of the event trace at detection time (empty without a sink).
  std::vector<trace::Event> context;

  [[nodiscard]] std::string to_string() const;
};

class NetworkInvariantAuditor final : public FlitAuditObserver {
 public:
  NetworkInvariantAuditor(Network& net, AuditConfig cfg)
      : net_(net), cfg_(cfg) {}

  /// Attach the trace sink whose tail is copied into violations.
  void set_trace_sink(const trace::TraceSink* sink) { sink_ = sink; }

  // --- FlitAuditObserver ---
  void on_packet_injected(Cycle now, const PacketInfo& info) override;
  void on_flit_delivered(Cycle now, const Flit& flit) override;
  void on_flits_purged(Cycle now, PacketId p,
                       const std::vector<std::uint64_t>& uids) override;

  /// Run the per-cycle checks (subject to cfg.period). Call after the
  /// network has fully stepped the cycle.
  void on_cycle_end();

  [[nodiscard]] bool clean() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t audits_run() const noexcept {
    return audits_run_;
  }
  [[nodiscard]] std::uint64_t flits_tracked() const noexcept {
    return flits_tracked_;
  }

  /// Human-readable report of every recorded violation (empty when clean).
  [[nodiscard]] std::string report() const;

 private:
  friend struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)

  struct LedgerEntry {
    enum class State : std::uint8_t { kResident, kDelivered, kPurged };
    std::uint64_t uid = 0;
    PacketId packet = kInvalidPacket;
    State state = State::kResident;
    Cycle since = 0;  ///< Cycle of the last state change.
    /// Number of the last audit whose census saw this flit. Scratch: not
    /// serialized.
    std::uint64_t seen = 0;
  };

  /// The per-uid flit ledger: entries in a dense vector, in no particular
  /// order, plus an open-addressing uid index (linear probing, at most half
  /// full). Both are reused across cycles, so steady-state bookkeeping
  /// allocates nothing. Whatever reports or serializes entries sorts them
  /// by uid first.
  class Ledger {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] std::vector<LedgerEntry>& entries() noexcept {
      return entries_;
    }
    [[nodiscard]] LedgerEntry* find(std::uint64_t uid);
    /// Insert `e` unless its uid is present (std::map::try_emplace
    /// semantics): the entry holding that uid, and whether it is new.
    std::pair<LedgerEntry*, bool> try_emplace(const LedgerEntry& e);
    /// Remove entries()[i]; the last entry moves into its place.
    void erase_at(std::size_t i);
    /// Sort the entries by uid and reindex them.
    void sort_by_uid();
    /// Rebuild the index after entries() was edited directly.
    void reindex() { reindex_for(entries_.size()); }

   private:
    [[nodiscard]] std::size_t home(std::uint64_t uid) const noexcept;
    /// Index slot holding `uid`, or the empty slot that ends its probe run.
    [[nodiscard]] std::size_t probe(std::uint64_t uid) const noexcept;
    /// Rebuild the index with room for `n` entries.
    void reindex_for(std::size_t n);

    std::vector<LedgerEntry> entries_;
    std::vector<std::uint32_t> index_;  ///< Entry position + 1; 0 is empty.
    int shift_ = 64;                    ///< 64 - log2(index_.size()).
  };

  /// Per-(router, port, vc) head-of-line progress watch.
  struct HolWatch {
    PacketId packet = kInvalidPacket;
    int next_seq = -1;
    Cycle ready_since = 0;

    /// False exactly for the default (reset) watch.
    [[nodiscard]] bool armed() const noexcept {
      return packet != kInvalidPacket || next_seq != -1 || ready_since != 0;
    }
  };

  void audit(Cycle now);
  void check_census(Cycle now);
  /// The reporting path of check_census: merge-walk the census and the
  /// ledger, both sorted by uid, recording every discrepancy in uid order.
  void reconcile_sorted(Cycle now);
  void check_starvation(Cycle now);
  /// Recompute watched_ from hol_ (snapshot load).
  void rebuild_watched();
  void record(Cycle now, ViolationKind kind, std::uint64_t uid, PacketId packet,
              std::string detail);
  /// True when this (kind, key) was already reported (suppress repeats of a
  /// persistent condition across audit cycles).
  [[nodiscard]] bool already_reported(ViolationKind kind, std::uint64_t key);

  Network& net_;
  AuditConfig cfg_;
  const trace::TraceSink* sink_ = nullptr;

  Ledger ledger_;
  std::set<PacketId> purged_packets_;
  std::vector<Violation> violations_;
  std::set<std::pair<std::uint64_t, int>> reported_;
  std::vector<ResidentFlit> census_;  ///< Reused scratch.
  std::vector<HolWatch> hol_;         ///< Indexed router-major.
  /// Per router input (router-major): bit v set iff that input's VC v has
  /// an armed HolWatch. Derived from hol_; rebuilt on snapshot load.
  std::vector<std::uint32_t> watched_;
  std::uint64_t audits_run_ = 0;
  std::uint64_t flits_tracked_ = 0;
};

}  // namespace htnoc::verify
