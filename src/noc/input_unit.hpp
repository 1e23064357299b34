// Input port of a router (or network interface): ECC decoding, ACK/NACK
// generation, threat-detector observation, de-obfuscation (including the
// scramble station that waits for partner flits), and the per-VC buffers.
//
// Because the link-level retransmission protocol can legally reorder flits
// (a NACKed flit is overtaken by its successors, paper Fig. 7), each VC
// buffer holds per-packet streams with flits kept sorted by sequence
// number; only the in-order next flit of the front stream is forwardable.
//
// Storage is data-oriented (docs/PERFORMANCE.md): every buffered flit lives
// in this port's FlitArena and streams thread through it as seq-sorted
// intrusive lists of generation-checked handles, so stepping never
// allocates and the stream metadata the router's RC/VA/SA stages scan every
// cycle is a small contiguous ring per VC. A busy-VC bit mask names the VCs
// holding any stream, so those stages visit only VCs with work.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/expect.hpp"
#include "ecc/codec.hpp"
#include "noc/hooks.hpp"
#include "noc/link.hpp"
#include "noc/obfuscation.hpp"
#include "noc/pool.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

class InputUnit {
 public:
  /// All buffered flits of one packet within one VC. The flits themselves
  /// sit in the port's FlitArena; the stream holds the head/tail of a
  /// seq-sorted intrusive list plus mirrored head-of-list facts
  /// (`front_seq`) so the allocator stages can test forwardability without
  /// touching the arena.
  struct PacketStream {
    enum class State : std::uint8_t {
      kNeedRoute,  ///< Head flit not yet routed.
      kWaitVA,     ///< Routed; waiting for an output VC.
      kActive,     ///< Output VC held; flits forwardable in order.
    };

    PacketId packet = kInvalidPacket;
    pool::FlitHandle head;  ///< First buffered flit (lowest seq), or null.
    pool::FlitHandle tail;  ///< Last buffered flit (highest seq), or null.
    int flit_count = 0;
    int front_seq = -1;  ///< Seq of the head flit; -1 when empty.
    int next_seq = 0;    ///< Next sequence number to forward.
    State state = State::kNeedRoute;
    int out_port = -1;
    bool phase_down_next = false;  ///< up*/down* phase after the routed hop.
    int out_vc = -1;
    Cycle va_eligible = 0;
    Cycle sa_eligible = 0;

    /// True when the in-order next flit is buffered at the front.
    [[nodiscard]] bool next_flit_present() const {
      return flit_count > 0 && front_seq == next_seq;
    }
    [[nodiscard]] bool head_present() const {
      return flit_count > 0 && front_seq == 0 && next_seq == 0;
    }
  };

  struct VcBuf {
    pool::Ring<PacketStream> streams;
    int occupancy = 0;  ///< Buffered flits, including scramble-station holds.
  };

  struct Stats {
    std::uint64_t flits_received = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t corrected_singles = 0;
    std::uint64_t silent_corruptions = 0;
    std::uint64_t scramble_stalls = 0;
  };

  InputUnit(const NocConfig& cfg, RouterId router, int port)
      : cfg_(cfg),
        codec_(cfg.ecc_scheme),
        router_(router),
        port_(port),
        vcs_(static_cast<std::size_t>(cfg.vcs_per_port)) {
    HTNOC_EXPECT(cfg.vcs_per_port <= 32);  // busy_vcs() is a 32-bit mask
  }

  void connect(Link* in_link) {
    HTNOC_EXPECT(in_link != nullptr);
    link_ = in_link;
  }
  void set_detector(ThreatDetector* det) { detector_ = det; }

  /// Install the trace tap with this unit's track identity (router port or
  /// NI core — NIs reuse InputUnit with an invalid router id).
  void set_trace(trace::Tap tap, trace::Scope scope, std::uint16_t node) {
    tap_ = tap;
    trace_scope_ = scope;
    trace_node_ = node;
  }

  /// Drain phase of the two-phase step: pop this cycle's due phits off the
  /// link into unit-local staging. Pure pops — no decoding, no sends, no
  /// trace events — so concurrent shards never write a queue another shard
  /// reads (see Network::step). Returns true when any phit is staged.
  bool drain_link(Cycle now) {
    if (link_ != nullptr) link_->drain_arrivals(now, staged_arrivals_);
    return !staged_arrivals_.empty();
  }

  /// Compute phase: decode, ack/nack, de-obfuscate and buffer the staged
  /// phits. All link interactions here are sends (single writer).
  void process_staged(Cycle now);

  /// Pull this cycle's phit arrivals off the link: decode, ack/nack,
  /// de-obfuscate, buffer. Serial convenience wrapper (drain + compute) for
  /// standalone unit use.
  void process_arrivals(Cycle now) {
    drain_link(now);
    process_staged(now);
  }

  [[nodiscard]] int num_vcs() const { return cfg_.vcs_per_port; }
  /// Bit v is set iff VC v holds at least one packet stream. Derived state:
  /// kept by deliver/pop_front_flit/purge_packet, rebuilt on snapshot load.
  [[nodiscard]] std::uint32_t busy_vcs() const noexcept { return busy_vcs_; }
  [[nodiscard]] VcBuf& vcbuf(int vc) { return vcs_[static_cast<std::size_t>(vc)]; }
  [[nodiscard]] const VcBuf& vcbuf(int vc) const {
    return vcs_[static_cast<std::size_t>(vc)];
  }

  /// Head flit of the front stream of `vc` (RC/VA/SA stages). The front
  /// stream must be non-empty.
  [[nodiscard]] const Flit& front_flit(int vc) const {
    const PacketStream& s = vcs_[static_cast<std::size_t>(vc)].streams.front();
    return arena_.flit(s.head);
  }
  /// Effective arrival cycle of that head flit (BW-stage gate).
  [[nodiscard]] Cycle front_arrival(int vc) const {
    const PacketStream& s = vcs_[static_cast<std::size_t>(vc)].streams.front();
    return arena_.arrival(s.head);
  }

  /// Total buffered flits across VCs plus scramble-station holds (the
  /// paper's input-port utilization). Derived state: a counter kept by
  /// deliver, pop_front_flit, purge_packet and the station, rebuilt on
  /// snapshot load, so the active-set check reads one word.
  [[nodiscard]] int occupancy() const noexcept { return occupancy_; }

  /// True when the front stream of `vc` has its in-order flit ready for SA
  /// (its one-cycle buffer-write stage complete) this cycle.
  [[nodiscard]] bool front_flit_ready(Cycle now, int vc) const {
    const VcBuf& b = vcs_[static_cast<std::size_t>(vc)];
    if (b.streams.empty()) return false;
    const PacketStream& s = b.streams.front();
    return s.next_flit_present() && arena_.arrival(s.head) + 1 <= now;
  }

  /// Pop the in-order next flit of the front stream of `vc` (ST stage).
  /// Returns the flit and sends a credit upstream; completed streams are
  /// retired.
  [[nodiscard]] Flit pop_front_flit(Cycle now, int vc);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] RouterId router() const noexcept { return router_; }
  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] Link* link() const noexcept { return link_; }
  [[nodiscard]] const pool::FlitArena& arena() const noexcept { return arena_; }

  /// Result of purging one packet from this input (link-disable recovery).
  struct PurgeResult {
    int flits_purged = 0;
    std::vector<std::uint64_t> buffered_uids;  ///< uids removed from buffers.
    /// Output VC the purged stream held (kActive), to be released by the
    /// router: (out_port, out_vc); (-1,-1) when none.
    int held_out_port = -1;
    int held_out_vc = -1;
    /// Packets whose scrambled phits were waiting on a purged partner and
    /// are now unrecoverable; the caller must purge them too.
    std::vector<PacketId> dependent_packets;
  };

  /// Remove all flits of `p` from buffers and the scramble station. Each
  /// removed flit returns its credit upstream through the normal reverse
  /// channel.
  [[nodiscard]] PurgeResult purge_packet(Cycle now, PacketId p);

  /// Buffered flits charged against VC `vc`'s credits (streams + scramble
  /// station holds).
  [[nodiscard]] int count_buffered(int vc) const {
    int n = vcs_[static_cast<std::size_t>(vc)].occupancy;
    for (const auto& e : station_) {
      if (e.phit.flit.vc == vc) ++n;
    }
    return n;
  }

  [[nodiscard]] bool has_buffered_uid(std::uint64_t uid) const {
    for (const auto& v : vcs_) {
      for (const auto& s : v.streams) {
        for (pool::FlitHandle h = s.head; !h.null(); h = arena_.next(h)) {
          if (arena_.flit(h).flit_uid() == uid) return true;
        }
      }
    }
    for (const auto& e : station_) {
      if (e.phit.flit.flit_uid() == uid) return true;
    }
    return false;
  }

  /// Audit census: append every buffered flit (VC streams + scramble
  /// station), labelled with the caller-supplied identity. Iteration order
  /// — VCs ascending, streams FIFO, flits seq-ascending — matches the
  /// snapshot walk and the pre-pool deque layout.
  ///
  /// Only the VCs in busy_vcs() are walked; the others hold no stream. The
  /// census trusts the mask exactly as RC, VA and SA do: a mask that
  /// wrongly cleared a busy VC would strand its flits (those stages skip
  /// the VC) and hide them here, so the auditor's ledger would report them
  /// as lost.
  void collect_resident(std::vector<ResidentFlit>& out, std::uint16_t node,
                        std::int8_t port) const {
    for (std::uint32_t m = busy_vcs_; m != 0; m &= m - 1) {
      const VcBuf& v = vcs_[static_cast<std::size_t>(std::countr_zero(m))];
      for (const auto& s : v.streams) {
        for (pool::FlitHandle h = s.head; !h.null(); h = arena_.next(h)) {
          const Flit& f = arena_.flit(h);
          out.push_back(
              {f.flit_uid(), f.packet, FlitSite::kInputBuffer, node, port});
        }
      }
    }
    for (const auto& e : station_) {
      out.push_back({e.phit.flit.flit_uid(), e.phit.flit.packet,
                     FlitSite::kScrambleStation, node, port});
    }
  }

  [[nodiscard]] bool has_packet(PacketId p) const {
    for (const auto& v : vcs_) {
      for (const auto& s : v.streams) {
        if (s.packet == p && s.flit_count > 0) return true;
      }
    }
    for (const auto& e : station_) {
      if (e.phit.flit.packet == p) return true;
    }
    return false;
  }

 private:
  friend struct htnoc::verify::StateCodec;

  /// Insert a fully recovered flit into its VC buffer.
  void deliver(Cycle effective_arrival, Flit f);
  /// Record a clean wire word and resolve any scrambled phits waiting on it.
  void note_clean_wire(Cycle now, PacketId packet, int seq, std::uint64_t wire);
  /// Seq-sorted insertion into a stream's arena list.
  void stream_insert(PacketStream& s, const Flit& f, Cycle arrival);
  /// Recompute busy_vcs_ and occupancy_ from the buffers (snapshot load).
  void rebuild_derived() {
    busy_vcs_ = 0;
    occupancy_ = static_cast<int>(station_.size());
    for (std::size_t v = 0; v < vcs_.size(); ++v) {
      if (!vcs_[v].streams.empty()) busy_vcs_ |= 1u << v;
      occupancy_ += vcs_[v].occupancy;
    }
  }

  struct StationEntry {
    LinkPhit phit;
    std::uint64_t decoded_word = 0;
    Cycle arrived = 0;
  };
  struct CachedWire {
    PacketId packet = kInvalidPacket;
    int seq = 0;
    std::uint64_t wire = 0;
  };

  static constexpr std::size_t kWireCacheSize = 32;

  const NocConfig& cfg_;
  ecc::CodecDispatch codec_;  ///< Scheme resolved once; no per-phit vcall.
  RouterId router_;
  int port_;
  Link* link_ = nullptr;
  ThreatDetector* detector_ = nullptr;
  trace::Tap tap_;
  trace::Scope trace_scope_ = trace::Scope::kRouter;
  std::uint16_t trace_node_ = 0;
  pool::FlitArena arena_;  ///< Owns every VC-buffered flit of this port.
  std::vector<VcBuf> vcs_;
  std::uint32_t busy_vcs_ = 0;  ///< See busy_vcs().
  int occupancy_ = 0;           ///< See occupancy().
  std::vector<LinkPhit> staged_arrivals_;  ///< Drained, not yet processed.
  std::vector<StationEntry> station_;
  pool::Ring<CachedWire> wire_cache_;
  /// note_clean_wire's cascade worklist: persistent scratch, reset on every
  /// call, never serialized.
  std::vector<CachedWire> wire_worklist_;
  Stats stats_;
};

}  // namespace htnoc
