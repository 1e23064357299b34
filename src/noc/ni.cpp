#include "noc/ni.hpp"

#include <bit>

#include "noc/flit.hpp"

namespace htnoc {

bool NetworkInterface::try_inject(Cycle now, const PacketInfo& info,
                                  const std::vector<std::uint64_t>& payload) {
  DomainStream& s = stream_of(info.domain);
  if (static_cast<int>(s.queue.size()) + info.length >
      cfg_.injection_queue_depth) {
    ++stats_.inject_rejects;
    if (!saturated_ && tap_.on(trace::Category::kInjection)) {
      trace::Event e = trace::make_event(trace::EventType::kInjectionBlocked,
                                         now, trace::Scope::kCore, core_);
      e.packet = info.id;
      tap_.emit(e);
    }
    saturated_ = true;
    return false;
  }
  for (Flit& f : packetize(info, payload)) s.queue.push_back(std::move(f));
#ifdef HTNOC_MUTATION_PHANTOM_FLIT
  // Mutation self-test: conjure a head-flit clone under a packet id the
  // traffic layer never allocated. It flows (and wedges a VC downstream)
  // like a real flit, but no injection was ever recorded for it (verify:
  // kUnknownFlit).
  // (Bit 40, not something higher: flit_uid() shifts the packet id left by
  // 8, so a flipped bit must survive the shift to give the ghost a uid of
  // its own.)
  if ((info.id & 0x7) == 4) {
    Flit ghost = s.queue[s.queue.size() - static_cast<std::size_t>(info.length)];
    ghost.packet ^= PacketId{1} << 40;
    s.queue.push_back(std::move(ghost));
  }
#endif
  ++stats_.packets_injected;
  if (audit_ != nullptr) audit_->on_packet_injected(now, info);
  if (saturated_ && tap_.on(trace::Category::kInjection)) {
    trace::Event e = trace::make_event(trace::EventType::kInjectionUnblocked,
                                       now, trace::Scope::kCore, core_);
    e.packet = info.id;
    tap_.emit(e);
  }
  saturated_ = false;
  return true;
}

void NetworkInterface::drain(Cycle now) {
  if (counts_->control != 0) out_.drain_control(now);
  if (counts_->phits != 0) in_.drain_link(now);
}

void NetworkInterface::compute(Cycle now) {
  out_.process_staged_control(now);
  step_ejection(now);
  step_injection(now);
  out_.step_lt(now);
}

void NetworkInterface::flush_ejections(Cycle now) {
  for (const PendingEjection& pe : pending_ejections_) {
    if (audit_ != nullptr) {
      for (int k = 0; k < pe.audit_calls; ++k) {
        audit_->on_flit_delivered(now, pe.flit);
      }
    }
    if (pe.deliver_tail && on_delivery_) {
      const Flit& f = pe.flit;
      PacketInfo info;
      info.id = f.packet;
      info.src_core = f.src_core;
      info.dest_core = f.dest_core;
      info.src_router = f.src_router;
      info.dest_router = f.dest_router;
      info.mem_addr = f.mem_addr;
      info.pclass = f.pclass;
      info.domain = f.domain;
      info.length = f.length;
      info.inject_cycle = f.inject_cycle;
      on_delivery_(now, info, now - f.inject_cycle);
    }
  }
  pending_ejections_.clear();
}

void NetworkInterface::step_injection(Cycle now) {
  if (!cfg_.tdm_enabled) {
    step_domain_injection(now, streams_[0]);
    return;
  }
  // Both domains drain independently; their flits ride disjoint VCs and the
  // link's TDM schedule interleaves them downstream.
  step_domain_injection(now, streams_[0]);
  step_domain_injection(now, streams_[1]);
}

void NetworkInterface::step_domain_injection(Cycle now, DomainStream& s) {
  if (s.queue.empty()) return;
  Flit& front = s.queue.front();

  // Head flits must first win a (trivial, single-requester) VC allocation
  // for the router's local input port.
  if (front.is_head() && s.out_vc < 0) {
    const auto [lo, hi] = allowed_vc_range(front.pclass, front.domain, cfg_);
    for (int vc = lo; vc <= hi; ++vc) {
      if (out_.vc_free(vc)) {
        out_.allocate_vc(vc);
        s.out_vc = vc;
        s.packet = front.packet;
        break;
      }
    }
    if (s.out_vc < 0) return;  // all VCs of the class are held
  }
  HTNOC_EXPECT(s.out_vc >= 0);

  if (!out_.can_accept(s.out_vc, front.domain) || out_.credits(s.out_vc) <= 0) {
    return;
  }

  Flit f = std::move(front);
  s.queue.pop_front();
  f.vc = static_cast<VcId>(s.out_vc);
  const bool tail = f.is_tail();
  out_.accept(now, std::move(f), now + 1);
  if (tail) {
    s.out_vc = -1;  // accept() released the VC allocation
    s.packet = kInvalidPacket;
  }
}

void NetworkInterface::step_ejection(Cycle now) {
  in_.process_staged(now);
  // Drain everything forwardable; the NI consumes flits as fast as the
  // router can deliver them (reassembly buffers are not the bottleneck the
  // paper studies). Audit/delivery notifications are staged, not invoked —
  // they touch shared observer state (see flush_ejections). VCs without a
  // stream have nothing to eject.
  for (std::uint32_t m = in_.busy_vcs(); m != 0; m &= m - 1) {
    const int vc = std::countr_zero(m);
    while (in_.front_flit_ready(now, vc)) {
      PendingEjection pe;
      pe.flit = in_.pop_front_flit(now, vc);
      ++stats_.flits_delivered;
#ifdef HTNOC_MUTATION_DOUBLE_DELIVER
      // Mutation self-test: the sink consumes a slice of the tail flits
      // twice — duplicated delivery accounting (verify: kDuplicateDelivery).
      if (pe.flit.is_tail() && (pe.flit.packet & 0x7) == 2) {
        ++stats_.flits_delivered;
        pe.audit_calls = 2;
      }
#endif
      if (pe.flit.is_tail()) {
        ++stats_.packets_delivered;
        pe.deliver_tail = true;
      }
      if (audit_ != nullptr || on_delivery_) {
        pending_ejections_.push_back(std::move(pe));
      }
    }
  }
}

int NetworkInterface::purge_injection(
    PacketId p, const std::vector<std::uint64_t>& buffered_uids,
    std::vector<std::uint64_t>* removed_uids) {
  int purged = 0;
  for (auto& s : streams_) {
    for (std::size_t i = 0; i < s.queue.size();) {
      if (s.queue[i].packet == p) {
        if (removed_uids != nullptr) {
          removed_uids->push_back(s.queue[i].flit_uid());
        }
        s.queue.erase_at(i);
        ++purged;
      } else {
        ++i;
      }
    }
    if (s.packet == p && s.out_vc >= 0) {
      out_.release_vc_if_allocated(s.out_vc);
      s.out_vc = -1;
      s.packet = kInvalidPacket;
    }
  }
  purged += out_.purge_packet(p, buffered_uids, removed_uids);
  return purged;
}

}  // namespace htnoc
