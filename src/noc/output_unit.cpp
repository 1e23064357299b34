#include "noc/output_unit.hpp"

#include <algorithm>

#include "noc/protocol.hpp"

namespace htnoc {

int OutputUnit::purge_packet(PacketId p,
                             const std::vector<std::uint64_t>& buffered_uids,
                             std::vector<std::uint64_t>* removed_uids) {
  int purged = 0;
#ifdef HTNOC_MUTATION_PURGE_SLOT_LEAK
  // Mutation self-test: leave the first matching slot behind — no erase, no
  // credit restore, no accounting. Credit conservation stays balanced (the
  // slot still "owns" its consumed credit); the stale slot is the leak
  // (verify: kPurgeLeak).
  bool leaked_one = false;
#endif
  for (std::size_t i = 0; i < meta_.size();) {
    if (meta_[i].packet != p) {
      ++i;
      continue;
    }
#ifdef HTNOC_MUTATION_PURGE_SLOT_LEAK
    if (!leaked_one) {
      leaked_one = true;
      ++i;
      continue;
    }
#endif
    const std::uint64_t uid = payload_[i].flit.flit_uid();
    if (removed_uids != nullptr) {
      removed_uids->push_back(uid);
    }
    // A waiting slot's flit exists only here; an in-flight one is either on
    // the link / NACK-pending (credit restored directly) or buffered at the
    // receiver (credit returns via the reverse channel during its purge).
    const bool credit_via_receiver =
        meta_[i].state == SlotState::kInFlight &&
        std::binary_search(buffered_uids.begin(), buffered_uids.end(), uid);
    if (!credit_via_receiver) {
      auto& c = credits_[static_cast<std::size_t>(meta_[i].vc)];
      HTNOC_INVARIANT(c < cfg_.buffer_depth);
      ++c;
    }
    erase_slot(i);
    ++purged;
  }
  return purged;
}

int OutputUnit::find_slot(PacketId packet, int seq, SlotState state) {
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    const SlotMeta& m = meta_[i];
    if (m.packet == packet && m.seq == seq && m.state == state) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void OutputUnit::step_lt(Cycle now) {
  if (meta_.empty() || link_ == nullptr || !link_->can_send(now)) return;

  // Oldest eligible waiting slot wins; retransmissions are naturally the
  // oldest entries, giving them the priority the protocol needs.
  int chosen = -1;
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    const SlotMeta& m = meta_[i];
    if (m.state != SlotState::kWaiting || m.eligible > now) continue;
    if (cfg_.tdm_enabled && !tdm_slot_allows(m.domain, now)) continue;
    chosen = static_cast<int>(i);
    break;
  }
  if (chosen < 0) return;
  SlotMeta& m = meta_[static_cast<std::size_t>(chosen)];
  SlotPayload& p = payload_[static_cast<std::size_t>(chosen)];
  const Flit& flit = p.flit;

  // Only an L-Ob controller obfuscates, so without one the flit goes plain
  // and no scramble partner is looked for. A partner must be another
  // waiting slot behind this one.
  int partner_idx = -1;
  ObfuscationTag tag;
  if (lob_ != nullptr && !m.forced_plain) {
    for (std::size_t j = static_cast<std::size_t>(chosen) + 1; j < meta_.size();
         ++j) {
      const SlotMeta& pm = meta_[j];
      if (pm.state == SlotState::kWaiting && !pm.forced_plain &&
          !(cfg_.tdm_enabled && pm.domain != m.domain)) {
        partner_idx = static_cast<int>(j);
        break;
      }
    }
    tag = lob_->plan(now, flit, m.attempt, m.escalate, partner_idx >= 0);
  }

  if (tag.method == ObfMethod::kReorder) {
    // Scheduling-only method: hold this flit so later flits go first,
    // breaking transmission-order-keyed triggers. No link traversal yet.
    m.eligible = now + kReorderHold;
    ++stats_.reorder_holds;
    return;
  }

  std::uint64_t word = flit.wire;
  if (tag.method == ObfMethod::kScramble) {
    HTNOC_EXPECT(partner_idx >= 0);
    SlotMeta& pm = meta_[static_cast<std::size_t>(partner_idx)];
    const Flit& pf = payload_[static_cast<std::size_t>(partner_idx)].flit;
    tag.partner_packet = pm.packet;
    tag.partner_seq = pm.seq;
    // The partner must cross the link un-obfuscated so the receiver can
    // undo the XOR (paper Fig. 7: flit #4 is sent plain after (2+4)).
    pm.forced_plain = true;
    word = obf::scramble(word, pf.wire, tag.granularity);
  } else if (tag.method != ObfMethod::kNone) {
    word = obf::apply(word, tag);
  }

  LinkPhit phit;
  phit.flit = flit;
  phit.codeword = codec_.encode(word);
  phit.obf = tag;
  phit.attempt = m.attempt;
  link_->send(now, std::move(phit));

  if (m.attempt > 0 && tap_.on(trace::Category::kRetransmission)) {
    trace::Event e =
        trace::make_event(trace::EventType::kRetransmission, now, trace_scope_,
                          trace_node_, trace_port_);
    e.packet = m.packet;
    e.seq = static_cast<std::uint32_t>(m.seq);
    e.vc = static_cast<std::uint8_t>(m.vc);
    e.aux = static_cast<std::uint8_t>(m.attempt > 255 ? 255 : m.attempt);
    e.arg = p.flit.wire;
    tap_.emit(e);
  }

  m.state = SlotState::kInFlight;
  p.last_tag = tag;
  // A scramble-partner reservation only covers this transmission; if it gets
  // NACKed, the retransmission is free to obfuscate (the receiver caches the
  // de-obfuscated wire word for the pending unscramble either way).
  m.forced_plain = false;
  ++stats_.transmissions;
  if (m.attempt > 0) ++stats_.retransmissions;
  if (tag.active()) ++stats_.obfuscated_sends;
}

namespace {
/// Clears a staged batch on scope exit, including on a thrown contract
/// violation — mid-batch messages must not be re-consumed next cycle.
template <typename T>
struct ScopedClear {
  std::vector<T>& v;
  ~ScopedClear() { v.clear(); }
};
}  // namespace

void OutputUnit::process_staged_control(Cycle now) {
  if (link_ == nullptr) return;
  ScopedClear<CreditMsg> clear_credits{staged_credits_};
  ScopedClear<AckMsg> clear_acks{staged_acks_};
  for (const CreditMsg& c : staged_credits_) {
    auto& cr = credits_[static_cast<std::size_t>(c.vc)];
#ifdef HTNOC_MUTATION_EXTRA_CREDIT
    // Mutation self-test: double-count a slice of the credit returns. The
    // local contract below goes with it — once the counter drifts high a
    // legitimate return would trip it first, and the exercise is proving
    // the auditor's fabric-wide census catches what a deleted local
    // assertion no longer can (verify: kCreditConservation).
    ++cr;
    if ((c.vc & 1) != 0) ++cr;
#else
    HTNOC_INVARIANT(cr < cfg_.buffer_depth);
    ++cr;
#endif
    last_credit_gain_[static_cast<std::size_t>(c.vc)] = now;
  }
  for (const AckMsg& a : staged_acks_) {
    const int idx = find_slot(a.packet, a.seq, SlotState::kInFlight);
    // Unmatched responses are possible only after a purge removed the slot
    // while its ACK/NACK was in flight; drop them.
    if (idx < 0) continue;
    SlotMeta& m = meta_[static_cast<std::size_t>(idx)];
    HTNOC_INVARIANT(m.attempt == a.attempt);
    if (a.ok) {
      if (lob_ != nullptr) {
        lob_->on_ack(now, payload_[static_cast<std::size_t>(idx)].flit,
                     payload_[static_cast<std::size_t>(idx)].last_tag);
      }
      ++stats_.acks;
      stats_.last_successful_lt = now;
      erase_slot(static_cast<std::size_t>(idx));
    } else {
      if (lob_ != nullptr) {
        lob_->on_nack(now, payload_[static_cast<std::size_t>(idx)].flit,
                      payload_[static_cast<std::size_t>(idx)].last_tag);
      }
      ++stats_.nacks;
      m.state = SlotState::kWaiting;
      m.eligible = now + 1;
      ++m.attempt;
      m.escalate = m.escalate || a.escalate_obfuscation;
    }
  }
}

}  // namespace htnoc
