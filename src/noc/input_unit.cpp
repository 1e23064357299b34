#include "noc/input_unit.hpp"

#include <algorithm>

namespace htnoc {

namespace {
/// Clears the staged batch on scope exit, including on a thrown contract
/// violation — mid-batch messages must not be re-consumed next cycle (the
/// pre-staging code drained them into a discarded local vector).
template <typename T>
struct ScopedClear {
  std::vector<T>& v;
  ~ScopedClear() { v.clear(); }
};
}  // namespace

void InputUnit::process_staged(Cycle now) {
  if (link_ == nullptr || staged_arrivals_.empty()) return;
  ScopedClear<LinkPhit> clear{staged_arrivals_};
  for (LinkPhit& phit : staged_arrivals_) {
    ++stats_.flits_received;
    const ecc::DecodeResult res = codec_.decode(phit.codeword);
    // What the threat detector sees; built only when one is attached.
    const auto observation = [&] {
      FaultObservation obs;
      obs.now = now;
      obs.receiver = router_;
      obs.in_port = port_;
      obs.flit = phit.flit;
      obs.ecc = res;
      obs.obf = phit.obf;
      obs.attempt = phit.attempt;
      return obs;
    };

    if (ecc::needs_retransmission(res.status)) {
      NackAdvice advice;
      if (detector_ != nullptr) {
        advice = detector_->on_uncorrectable(observation());
      }
      AckMsg nack;
      nack.packet = phit.flit.packet;
      nack.seq = phit.flit.seq;
      nack.attempt = phit.attempt;
      nack.ok = false;
      nack.escalate_obfuscation = advice.escalate_obfuscation;
      nack.bist_requested = advice.request_bist;
      link_->send_ack(now, nack);
      ++stats_.nacks_sent;
      if (tap_.on(trace::Category::kEcc)) {
        trace::Event e =
            trace::make_event(trace::EventType::kEccUncorrectable, now,
                              trace_scope_, trace_node_,
                              static_cast<std::int8_t>(port_));
        e.packet = phit.flit.packet;
        e.seq = static_cast<std::uint32_t>(phit.flit.seq);
        e.vc = static_cast<std::uint8_t>(phit.flit.vc);
        e.arg = static_cast<std::uint64_t>(phit.attempt);
        tap_.emit(e);
        e.type = trace::EventType::kNackSent;
        e.aux = static_cast<std::uint8_t>(
            (advice.escalate_obfuscation ? 1u : 0u) |
            (advice.request_bist ? 2u : 0u));
        tap_.emit(e);
      }
      continue;
    }

    if (res.status == ecc::DecodeStatus::kCorrectedSingle) {
      ++stats_.corrected_singles;
      if (detector_ != nullptr) detector_->on_corrected(observation());
      if (tap_.on(trace::Category::kEcc)) {
        trace::Event e =
            trace::make_event(trace::EventType::kEccCorrected, now,
                              trace_scope_, trace_node_,
                              static_cast<std::int8_t>(port_));
        e.packet = phit.flit.packet;
        e.seq = static_cast<std::uint32_t>(phit.flit.seq);
        e.vc = static_cast<std::uint8_t>(phit.flit.vc);
        e.arg = static_cast<std::uint64_t>(phit.attempt);
        tap_.emit(e);
      }
    } else if (detector_ != nullptr) {
      detector_->on_clean(observation());
    }

    AckMsg ack;
    ack.packet = phit.flit.packet;
    ack.seq = phit.flit.seq;
    ack.attempt = phit.attempt;
    ack.ok = true;
    link_->send_ack(now, ack);

#ifdef HTNOC_MUTATION_LOSE_FLIT
    // Mutation self-test: ACK and credit a slice of clean arrivals but never
    // buffer them. Credit conservation stays balanced — the flit simply
    // ceases to exist (verify: kFlitLoss).
    // (Keyed on packet + seq, not the uid's low bits: those are just the
    // seq, which short packets never take past 8.)
    if (((phit.flit.packet + static_cast<PacketId>(phit.flit.seq)) & 0xF) ==
        9) {
      link_->send_credit(now, CreditMsg{phit.flit.vc});
      continue;
    }
#endif

    const std::uint64_t decoded = res.data;
    if (phit.obf.method == ObfMethod::kScramble) {
      // Recover the true word once the partner's wire image is known.
      const auto it = std::find_if(
          wire_cache_.begin(), wire_cache_.end(), [&](const CachedWire& c) {
            return c.packet == phit.obf.partner_packet &&
                   c.seq == phit.obf.partner_seq;
          });
      if (it != wire_cache_.end()) {
        const std::uint64_t word = obf::undo(decoded, phit.obf, it->wire);
        if (word != phit.flit.wire) ++stats_.silent_corruptions;
        Flit f = phit.flit;
        note_clean_wire(now, f.packet, f.seq, word);
        deliver(now + obf::undo_penalty_cycles(phit.obf.method), std::move(f));
      } else {
        // Partner not seen yet: hold in the scramble station (paper: the
        // 1-2 cycle penalty when one of the pair is absent).
        ++stats_.scramble_stalls;
        StationEntry e;
        e.phit = std::move(phit);
        e.decoded_word = decoded;
        e.arrived = now;
        station_.push_back(std::move(e));
        ++occupancy_;
        // Every stationed flit still owns its upstream credit (returned only
        // after delivery + pop), so the station can never outgrow the port's
        // credit capacity.
        HTNOC_INVARIANT(station_.size() <=
                        static_cast<std::size_t>(cfg_.vcs_per_port) *
                            static_cast<std::size_t>(cfg_.buffer_depth));
      }
      continue;
    }

    std::uint64_t word = decoded;
    Cycle effective = now;
    if (phit.obf.active()) {
      word = obf::undo(decoded, phit.obf);
      effective = now + obf::undo_penalty_cycles(phit.obf.method);
    }
    if (word != phit.flit.wire) ++stats_.silent_corruptions;
    Flit f = phit.flit;
    note_clean_wire(now, f.packet, f.seq, word);
    deliver(effective, std::move(f));
  }
}

void InputUnit::note_clean_wire(Cycle now, PacketId packet, int seq,
                                std::uint64_t wire_word) {
  // A recovered word is itself a clean wire and may be the partner of
  // further phits parked in the station (the L-Ob controller never chains
  // scrambles, but a forced-scramble configuration can), so resolution must
  // cascade. A worklist keeps the cascade out of the station walk: resolving
  // recursively while holding a station_ iterator erases from the vector
  // under the walk and invalidates it.
  std::vector<CachedWire>& pending = wire_worklist_;  // reused, no allocation
  pending.assign(1, CachedWire{packet, seq, wire_word});
  while (!pending.empty()) {
    const CachedWire w = pending.back();
    pending.pop_back();
    wire_cache_.push_back(w);
    if (wire_cache_.size() > kWireCacheSize) wire_cache_.pop_front();

    // Resolve any scrambled phits that were waiting for this partner.
    for (auto it = station_.begin(); it != station_.end();) {
      if (it->phit.obf.partner_packet == w.packet &&
          it->phit.obf.partner_seq == w.seq) {
        const std::uint64_t word =
            obf::undo(it->decoded_word, it->phit.obf, w.wire);
        if (word != it->phit.flit.wire) ++stats_.silent_corruptions;
        Flit f = it->phit.flit;
        const Cycle effective =
            now + obf::undo_penalty_cycles(it->phit.obf.method);
        it = station_.erase(it);
        --occupancy_;
        pending.push_back({f.packet, f.seq, word});
        deliver(effective, std::move(f));
      } else {
        ++it;
      }
    }
  }
}

void InputUnit::stream_insert(PacketStream& s, const Flit& f, Cycle arrival) {
  const pool::FlitHandle h = arena_.alloc(f, arrival);
  if (s.flit_count == 0) {
    s.head = s.tail = h;
    s.front_seq = f.seq;
  } else if (f.seq < s.front_seq) {
    arena_.set_next(h, s.head);
    s.head = h;
    s.front_seq = f.seq;
  } else {
    // Walk to the last node with seq < f.seq; duplicates are protocol
    // violations (same invariant the sorted-deque insert asserted).
    HTNOC_INVARIANT(arena_.flit(s.head).seq != f.seq);
    pool::FlitHandle prev = s.head;
    for (pool::FlitHandle nxt = arena_.next(prev); !nxt.null();
         nxt = arena_.next(prev)) {
      if (arena_.flit(nxt).seq >= f.seq) break;
      prev = nxt;
    }
    const pool::FlitHandle nxt = arena_.next(prev);
    HTNOC_INVARIANT(nxt.null() || arena_.flit(nxt).seq != f.seq);
    arena_.set_next(h, nxt);
    arena_.set_next(prev, h);
    if (nxt.null()) s.tail = h;
  }
  ++s.flit_count;
}

void InputUnit::deliver(Cycle effective_arrival, Flit f) {
  HTNOC_EXPECT(f.vc < cfg_.vcs_per_port);
  VcBuf& b = vcs_[static_cast<std::size_t>(f.vc)];
  HTNOC_INVARIANT(b.occupancy < cfg_.buffer_depth * 4);  // generous sanity bound

  // Find or create the packet's stream.
  PacketStream* stream = nullptr;
  for (auto& s : b.streams) {
    if (s.packet == f.packet) {
      stream = &s;
      break;
    }
  }
  if (stream == nullptr) {
    stream = &b.streams.emplace_back();
    stream->packet = f.packet;
    busy_vcs_ |= 1u << f.vc;
  }

  stream_insert(*stream, f, effective_arrival);
  ++b.occupancy;
  ++occupancy_;
}

InputUnit::PurgeResult InputUnit::purge_packet(Cycle now, PacketId p) {
  PurgeResult res;
  for (int vc = 0; vc < cfg_.vcs_per_port; ++vc) {
    VcBuf& b = vcs_[static_cast<std::size_t>(vc)];
    for (std::size_t si = 0; si < b.streams.size();) {
      PacketStream& s = b.streams[si];
      if (s.packet != p) {
        ++si;
        continue;
      }
      for (pool::FlitHandle h = s.head; !h.null();) {
        const pool::FlitHandle nxt = arena_.next(h);
        res.buffered_uids.push_back(arena_.flit(h).flit_uid());
        ++res.flits_purged;
        --b.occupancy;
        --occupancy_;
        if (link_ != nullptr) {
          link_->send_credit(now, CreditMsg{static_cast<VcId>(vc)});
        }
        arena_.release(h);
        h = nxt;
      }
      if (s.state == PacketStream::State::kActive) {
        res.held_out_port = s.out_port;
        res.held_out_vc = s.out_vc;
      }
      b.streams.erase_at(si);
    }
    if (b.streams.empty()) busy_vcs_ &= ~(1u << vc);
  }
  // Scramble station: entries of the packet itself, and entries stranded by
  // the loss of their partner.
  for (auto it = station_.begin(); it != station_.end();) {
    if (it->phit.flit.packet == p) {
      res.buffered_uids.push_back(it->phit.flit.flit_uid());
      ++res.flits_purged;
      if (link_ != nullptr) {
        link_->send_credit(now, CreditMsg{it->phit.flit.vc});
      }
      it = station_.erase(it);
      --occupancy_;
    } else if (it->phit.obf.partner_packet == p) {
      // Partner gone before arrival: the scrambled data is unrecoverable;
      // escalate the purge to that packet.
      res.dependent_packets.push_back(it->phit.flit.packet);
      ++it;
    } else {
      ++it;
    }
  }
  return res;
}

Flit InputUnit::pop_front_flit(Cycle now, int vc) {
  VcBuf& b = vcs_[static_cast<std::size_t>(vc)];
  HTNOC_EXPECT(!b.streams.empty());
  PacketStream& s = b.streams.front();
  HTNOC_EXPECT(s.next_flit_present());

  const pool::FlitHandle h = s.head;
  Flit f = std::move(arena_.flit(h));
  s.head = arena_.next(h);
  s.front_seq = s.head.null() ? -1 : arena_.flit(s.head).seq;
  if (s.head.null()) s.tail = pool::FlitHandle{};
  --s.flit_count;
  arena_.release(h);
  ++s.next_seq;
  --b.occupancy;
  --occupancy_;

  // Return the buffer slot upstream.
#ifdef HTNOC_MUTATION_SKIP_CREDIT
  // Mutation self-test: swallow a slice of the credit returns. The upstream
  // credit counter drifts low (verify: kCreditConservation).
  const bool skip_credit =
      ((f.packet + static_cast<PacketId>(f.seq)) & 0x7) == 5;
#else
  const bool skip_credit = false;
#endif
  if (!skip_credit && link_ != nullptr) {
    link_->send_credit(now, CreditMsg{static_cast<VcId>(vc)});
  }

  if (f.is_tail()) {
    HTNOC_INVARIANT(s.next_seq == f.length);
    HTNOC_INVARIANT(s.flit_count == 0);
    b.streams.pop_front();
    if (b.streams.empty()) busy_vcs_ &= ~(1u << vc);
  }
  return f;
}

}  // namespace htnoc
