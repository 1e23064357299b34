// A unidirectional inter-router (or router-NI) link: one phit per cycle
// forward, plus a trusted reverse control channel for credits and ACK/NACK.
// Fault injectors (transient, permanent, trojan) attach to the forward data
// wires and mutate codewords in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "noc/fault_model.hpp"
#include "noc/flit.hpp"
#include "noc/pool.hpp"
#include "noc/hooks.hpp"
#include "noc/protocol.hpp"
#include "trace/sink.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc {

/// The in-flight words of one unit port: phits on the port's input link,
/// and credits plus ACK/NACKs coming back on its output link. Each word
/// equals its link's queue length (Link::bind_counts); Network owns them
/// in one array so the active-set check and the drain read no link.
struct PortCounts {
  std::uint32_t phits = 0;
  std::uint32_t control = 0;
};

class Link {
 public:
  struct Stats {
    std::uint64_t phits_sent = 0;
    std::uint64_t phits_with_injected_faults = 0;
    std::uint64_t credits_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t nacks_sent = 0;
  };

  Link() = default;
  // The count pointers may point into the link itself (see bind_counts).
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Point this link's two in-flight counts at words the network owns:
  /// `phits` tracks in_flight_.size(), `control` credits_.size() +
  /// acks_.size(). Every push raises its word and every pop or purge lowers
  /// it, so the words always equal the queue lengths and the units at both
  /// ends test for work without touching the link (Network::step). The
  /// words take the current lengths. An unbound link counts into words of
  /// its own.
  void bind_counts(std::uint32_t* phits, std::uint32_t* control) {
    HTNOC_EXPECT(phits != nullptr && control != nullptr);
    phit_count_ = phits;
    control_count_ = control;
    recount();
  }

  /// One phit per cycle; disabled links reject all traffic.
  [[nodiscard]] bool can_send(Cycle now) const noexcept {
    return !disabled_ && last_send_cycle_ != static_cast<std::int64_t>(now);
  }

  /// Start link traversal at cycle `now`; the phit arrives one cycle later.
  /// Fault injectors run in attach order.
  void send(Cycle now, LinkPhit phit) {
    HTNOC_EXPECT(can_send(now));
    last_send_cycle_ = static_cast<std::int64_t>(now);
    phit.sent_cycle = now;
    const Codeword72 before = phit.codeword;
    for (const auto& inj : injectors_) inj->on_traverse(now, phit);
    ++stats_.phits_sent;
    const bool faulted = !(phit.codeword == before);
    if (faulted) ++stats_.phits_with_injected_faults;
    if (tap_.on(trace::Category::kLink)) {
      trace::Event e = trace::make_event(trace::EventType::kLinkTraversal, now,
                                         trace::Scope::kLink, trace_node_,
                                         trace_port_);
      e.packet = phit.flit.packet;
      e.seq = phit.flit.seq;
      e.vc = static_cast<std::uint8_t>(phit.flit.vc);
      e.aux = static_cast<std::uint8_t>(
          phit.attempt > 255 ? 255 : phit.attempt);
      e.arg = phit.flit.wire;
      tap_.emit(e);
      if (faulted) {
        e.type = trace::EventType::kLinkFaultInjected;
        tap_.emit(e);
      }
    }
    in_flight_.push_back({now + 1, std::move(phit)});
    ++*phit_count_;
  }

  /// Pop all phits whose traversal completes at cycle `now`, appending to
  /// `out`. The drain-phase primitive of the two-phase parallel step: with
  /// a one-cycle traversal nothing sent during cycle `now` is due at `now`,
  /// so draining before any unit computes picks up exactly what the serial
  /// interleaved pull would, and phase-2 sends become the only in_flight_
  /// mutations (single writer per deque).
  void drain_arrivals(Cycle now, std::vector<LinkPhit>& out) {
    while (!in_flight_.empty() && in_flight_.front().arrive <= now) {
      HTNOC_INVARIANT(in_flight_.front().arrive == now);
      out.push_back(std::move(in_flight_.front().phit));
      in_flight_.pop_front();
      --*phit_count_;
    }
  }

  // --- reverse control channel (delay 1 cycle, trusted) ---

  void send_credit(Cycle now, CreditMsg c) {
    credits_.push_back({now + 1, c});
    ++*control_count_;
    ++stats_.credits_sent;
  }
  void send_ack(Cycle now, AckMsg a) {
#ifdef HTNOC_MUTATION_DROP_ACK
    // Mutation self-test: silently drop a slice of the ok-ACKs. The sender's
    // retransmission slot is never released (verify: kAckSlotLeak).
    if (a.ok && ((a.packet + static_cast<PacketId>(a.seq)) & 0x1F) == 3) {
      return;
    }
#endif
    if (a.ok) {
      ++stats_.acks_sent;
    } else {
      ++stats_.nacks_sent;
    }
    acks_.push_back({now + 1, a});
    ++*control_count_;
  }

  /// Credits currently travelling the reverse channel for `vc` (invariant
  /// checking).
  [[nodiscard]] int pending_credit_count(VcId vc) const {
    int n = 0;
    for (const auto& c : credits_) {
      if (c.msg.vc == vc) ++n;
    }
    return n;
  }

  /// Pop the credits and ACK/NACKs due at cycle `now`, appending to `out`
  /// (see drain_arrivals; the reverse channel's 1-cycle delay gives the
  /// same no-same-cycle-visibility guarantee).
  void drain_credits(Cycle now, std::vector<CreditMsg>& out) {
    while (!credits_.empty() && credits_.front().arrive <= now) {
      out.push_back(credits_.front().msg);
      credits_.pop_front();
      --*control_count_;
    }
  }
  void drain_acks(Cycle now, std::vector<AckMsg>& out) {
    while (!acks_.empty() && acks_.front().arrive <= now) {
      out.push_back(acks_.front().msg);
      acks_.pop_front();
      --*control_count_;
    }
  }

  // --- fault attachment & BIST ---

  void attach_injector(std::shared_ptr<LinkFaultInjector> inj) {
    HTNOC_EXPECT(inj != nullptr);
    injectors_.push_back(std::move(inj));
  }

  /// Run a BIST test pattern through the passive fault models only. A clean
  /// return equal to the input means no permanent fault is visible.
  [[nodiscard]] Codeword72 probe(Codeword72 pattern) const {
    for (const auto& inj : injectors_) inj->probe(pattern);
    return pattern;
  }

  /// Remove all in-flight forward phits of a packet (part of the network-
  /// wide packet purge that link-disabling recovery performs). Returns the
  /// flit uids removed.
  std::vector<std::uint64_t> purge_packet(PacketId p) {
    std::vector<std::uint64_t> uids;
    for (std::size_t i = 0; i < in_flight_.size();) {
      if (in_flight_[i].phit.flit.packet == p) {
        uids.push_back(in_flight_[i].phit.flit.flit_uid());
        in_flight_.erase_at(i);
        --*phit_count_;
      } else {
        ++i;
      }
    }
    return uids;
  }

  [[nodiscard]] bool has_packet(PacketId p) const {
    for (const auto& f : in_flight_) {
      if (f.phit.flit.packet == p) return true;
    }
    return false;
  }

  /// Audit census: append every in-flight forward phit, labelled with the
  /// caller-supplied identity (tracing may be off, so the trace identity
  /// cannot be relied on here).
  void collect_resident(std::vector<ResidentFlit>& out, std::uint16_t node,
                        std::int8_t port) const {
    for (const auto& f : in_flight_) {
      out.push_back({f.phit.flit.flit_uid(), f.phit.flit.packet,
                     FlitSite::kLinkPhit, node, port});
    }
  }

  void set_disabled(bool d) noexcept { disabled_ = d; }
  [[nodiscard]] bool disabled() const noexcept { return disabled_; }

  /// Install the trace tap plus this link's track identity: `node` is the
  /// source router (mesh links) or core (local links), `port` a direction
  /// code 0..3 or trace::kLinkPortInjection / kLinkPortEjection.
  void set_trace(trace::Tap tap, std::uint16_t node, std::int8_t port) {
    tap_ = tap;
    trace_node_ = node;
    trace_port_ = port;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool idle() const noexcept { return in_flight_.empty(); }
  /// Queue lengths the two in-flight words track (see bind_counts).
  [[nodiscard]] std::size_t phits_queued() const noexcept {
    return in_flight_.size();
  }
  [[nodiscard]] std::size_t control_queued() const noexcept {
    return credits_.size() + acks_.size();
  }

 private:
  friend struct htnoc::verify::StateCodec;

  /// Re-derive both words from the queues (binding, snapshot load).
  void recount() noexcept {
    *phit_count_ = static_cast<std::uint32_t>(phits_queued());
    *control_count_ = static_cast<std::uint32_t>(control_queued());
  }

  struct InFlight {
    Cycle arrive;
    LinkPhit phit;
  };
  struct PendingCredit {
    Cycle arrive;
    CreditMsg msg;
  };
  struct PendingAck {
    Cycle arrive;
    AckMsg msg;
  };

  bool disabled_ = false;
  std::int64_t last_send_cycle_ = -1;
  // Contiguous rings (src/noc/pool.hpp): FIFO in steady state, allocation-
  // free once warmed; serialized with the same layout the deques had.
  pool::Ring<InFlight> in_flight_;
  pool::Ring<PendingCredit> credits_;
  pool::Ring<PendingAck> acks_;
  std::vector<std::shared_ptr<LinkFaultInjector>> injectors_;
  // In-flight words (bind_counts): derived state, never serialized.
  std::uint32_t own_counts_[2] = {0, 0};
  std::uint32_t* phit_count_ = &own_counts_[0];
  std::uint32_t* control_count_ = &own_counts_[1];
  Stats stats_;
  trace::Tap tap_;
  std::uint16_t trace_node_ = 0;
  std::int8_t trace_port_ = -1;
};

}  // namespace htnoc
