#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "noc/protocol.hpp"

namespace htnoc {

namespace {
void set_bit(std::uint64_t* words, int i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}
}  // namespace

Router::Router(const NocConfig& cfg, RouterId id,
               const RoutingFunction* routing, const PortCounts* counts)
    : cfg_(cfg),
      id_(id),
      ports_(cfg.ports_per_router()),
      routing_(routing),
      counts_(counts) {
  HTNOC_EXPECT(routing != nullptr && counts != nullptr);
  const int ports = ports_;
  HTNOC_EXPECT(ports <= 32);  // port masks are 32-bit
  inputs_.reserve(static_cast<std::size_t>(ports));
  outputs_.reserve(static_cast<std::size_t>(ports));
  for (int p = 0; p < ports; ++p) {
    inputs_.push_back(std::make_unique<InputUnit>(cfg_, id_, p));
    outputs_.push_back(std::make_unique<OutputUnit>(cfg_));
  }
  const int nreq = ports * cfg_.vcs_per_port;
  va_arbiters_.assign(static_cast<std::size_t>(nreq), RoundRobinArbiter(nreq));
  sa_input_arbiters_.assign(static_cast<std::size_t>(ports),
                            RoundRobinArbiter(cfg_.vcs_per_port));
  sa_output_arbiters_.assign(static_cast<std::size_t>(ports),
                             RoundRobinArbiter(ports));
  // Arbitration scratch is sized once here and reused every cycle; the
  // request masks are all-zero between stage calls (each stage wipes
  // exactly the rows it touched).
  va_words_ = RoundRobinArbiter::words_for(nreq);
  va_req_.assign(static_cast<std::size_t>(nreq * va_words_), 0);
  va_pending_.assign(
      static_cast<std::size_t>(RoundRobinArbiter::words_for(nreq)), 0);
  sa_winner_vc_.assign(static_cast<std::size_t>(ports), -1);
  sa_out_req_.assign(static_cast<std::size_t>(ports), 0);
}

void Router::set_detector(ThreatDetector* det) {
  for (auto& in : inputs_) in->set_detector(det);
}

void Router::set_lob(int port, LObController* lob) {
  outputs_[static_cast<std::size_t>(port)]->set_lob(lob);
}

void Router::set_trace(trace::Tap tap) {
  for (auto& in : inputs_) in->set_trace(tap, trace::Scope::kRouter, id_);
  for (std::size_t p = 0; p < outputs_.size(); ++p) {
    outputs_[p]->set_trace(tap, trace::Scope::kRouter, id_,
                           static_cast<std::int8_t>(p));
  }
}

void Router::drain(Cycle now) {
  // A zero word means an empty queue: nothing there to pop.
  for (int p = 0; p < ports_; ++p) {
    const PortCounts& c = counts_[p];
    const auto pu = static_cast<std::size_t>(p);
    if (c.control != 0 && outputs_[pu]->drain_control(now)) {
      ctrl_ports_ |= 1u << p;
    }
    if (c.phits != 0 && inputs_[pu]->drain_link(now)) bw_ports_ |= 1u << p;
  }
}

void Router::sync_slot_outputs() {
  slot_outputs_ = 0;
  for (int p = 0; p < ports_; ++p) {
    if (outputs_[static_cast<std::size_t>(p)]->occupancy() != 0) {
      slot_outputs_ |= 1u << p;
    }
  }
}

void Router::compute(Cycle now) {
  // Reverse-channel control first so freed slots/credits are usable this
  // cycle (they were sent >= 1 cycle ago). Ports that staged nothing have
  // nothing to apply; an ACK may free an output's last slot.
  for (std::uint32_t m = std::exchange(ctrl_ports_, 0); m != 0; m &= m - 1) {
    const int p = std::countr_zero(m);
    OutputUnit& out = *outputs_[static_cast<std::size_t>(p)];
    out.process_staged_control(now);
    if (out.occupancy() == 0) slot_outputs_ &= ~(1u << p);
  }
  // BW: each port that staged phits decodes and buffers them.
  for (std::uint32_t m = std::exchange(bw_ports_, 0); m != 0; m &= m - 1) {
    inputs_[static_cast<std::size_t>(std::countr_zero(m))]->process_staged(now);
  }
  stage_rc(now);
  stage_va(now);
  stage_sa_st(now);
  // LT: each output holding a slot encodes and sends, port-ascending.
  for (std::uint32_t m = slot_outputs_; m != 0; m &= m - 1) {
    outputs_[static_cast<std::size_t>(std::countr_zero(m))]->step_lt(now);
  }
}

void Router::stage_rc(Cycle now) {
  for (auto& in : inputs_) {
    for (std::uint32_t m = in->busy_vcs(); m != 0; m &= m - 1) {
      const int vc = std::countr_zero(m);
      auto& stream = in->vcbuf(vc).streams.front();
      if (stream.state != InputUnit::PacketStream::State::kNeedRoute) continue;
      if (!stream.head_present()) continue;
      const Flit& head = in->front_flit(vc);
      const RouteDecision dec = routing_->route(id_, head);
      ++stats_.rc_computations;
      if (dec.out_port < 0) {
        ++stats_.rc_stalls_unroutable;
        continue;  // retry next cycle (e.g. mid-reconfiguration)
      }
      stream.out_port = dec.out_port;
      stream.phase_down_next = dec.next_phase_down;
      stream.state = InputUnit::PacketStream::State::kWaitVA;
      stream.va_eligible = in->front_arrival(vc) + 1;
      (void)now;
    }
  }
}

void Router::stage_va(Cycle now) {
  const int ports = num_ports();

  // Each waiting input VC nominates one candidate output VC: it sets its
  // requester bit in that output VC's arbiter row and marks the arbiter
  // pending. Rows are persistent scratch, all-zero on entry.
  for (int ip = 0; ip < ports; ++ip) {
    InputUnit& in = *inputs_[static_cast<std::size_t>(ip)];
    for (std::uint32_t m = in.busy_vcs(); m != 0; m &= m - 1) {
      const int ivc = std::countr_zero(m);
      auto& stream = in.vcbuf(ivc).streams.front();
      if (stream.state != InputUnit::PacketStream::State::kWaitVA) continue;
      if (stream.va_eligible > now) continue;
      const Flit& head = in.front_flit(ivc);
      const auto [lo, hi] = allowed_vc_range(head.pclass, head.domain, cfg_);
      OutputUnit& out = *outputs_[static_cast<std::size_t>(stream.out_port)];
      int candidate = -1;
      for (int ovc = lo; ovc <= hi; ++ovc) {
        if (out.vc_free(ovc)) {
          candidate = ovc;
          break;
        }
      }
      if (candidate < 0) {
        ++stats_.va_stalls_no_free_vc;
        continue;  // all output VCs of the class are held
      }
      const int ai = va_arbiter_index(stream.out_port, candidate);
      set_bit(&va_req_[static_cast<std::size_t>(ai * va_words_)],
              requester_index(ip, ivc));
      set_bit(va_pending_.data(), ai);
    }
  }

  // Grant per pending arbiter, ascending, wiping each row after use. An
  // input VC bids for one arbiter only, so the grants are disjoint.
  for (std::size_t w = 0; w < va_pending_.size(); ++w) {
    for (std::uint64_t m = std::exchange(va_pending_[w], 0); m != 0;
         m &= m - 1) {
      const int ai = static_cast<int>(w) * 64 + std::countr_zero(m);
      const std::span<std::uint64_t> row(
          &va_req_[static_cast<std::size_t>(ai * va_words_)],
          static_cast<std::size_t>(va_words_));
      RoundRobinArbiter& arb = va_arbiters_[static_cast<std::size_t>(ai)];
      const int winner = arb.arbitrate(row);
      std::fill(row.begin(), row.end(), 0);
      arb.update(winner);
      const int ip = winner / cfg_.vcs_per_port;
      const int ivc = winner % cfg_.vcs_per_port;
      const int out_port = ai / cfg_.vcs_per_port;
      const int out_vc = ai % cfg_.vcs_per_port;
      auto& stream =
          inputs_[static_cast<std::size_t>(ip)]->vcbuf(ivc).streams.front();
      outputs_[static_cast<std::size_t>(out_port)]->allocate_vc(out_vc);
      stream.out_vc = out_vc;
      stream.state = InputUnit::PacketStream::State::kActive;
      stream.sa_eligible = now + 1;
      ++stats_.va_grants;
    }
  }
}

void Router::stage_sa_st(Cycle now) {
  const int ports = num_ports();

  // Stage 1: each input port picks one ready VC, and its winner bids for
  // the winner's output port in that output's stage-2 request mask.
  std::uint32_t bid_outputs = 0;
  for (int ip = 0; ip < ports; ++ip) {
    InputUnit& in = *inputs_[static_cast<std::size_t>(ip)];
    std::uint64_t req = 0;
    for (std::uint32_t m = in.busy_vcs(); m != 0; m &= m - 1) {
      const int ivc = std::countr_zero(m);
      const auto& stream = in.vcbuf(ivc).streams.front();
      if (stream.state != InputUnit::PacketStream::State::kActive) continue;
      if (stream.sa_eligible > now) continue;
      if (!in.front_flit_ready(now, ivc)) continue;
      OutputUnit& out = *outputs_[static_cast<std::size_t>(stream.out_port)];
      if (!out.can_accept(stream.out_vc, in.front_flit(ivc).domain)) {
        ++stats_.sa_stalls_no_slot;
        continue;
      }
      if (out.credits(stream.out_vc) <= 0) {
        ++stats_.sa_stalls_no_credit;
        continue;
      }
      req |= std::uint64_t{1} << ivc;
      ++stats_.sa_requests;
    }
    if (req == 0) continue;
    RoundRobinArbiter& arb = sa_input_arbiters_[static_cast<std::size_t>(ip)];
    const int w = arb.arbitrate(req);
    arb.update(w);
    sa_winner_vc_[static_cast<std::size_t>(ip)] = w;
    const int op = in.vcbuf(w).streams.front().out_port;
    sa_out_req_[static_cast<std::size_t>(op)] |= 1u << ip;
    bid_outputs |= 1u << op;
  }

  // Stage 2: each output port with a bid picks one input port, ascending.
  for (; bid_outputs != 0; bid_outputs &= bid_outputs - 1) {
    const int op = std::countr_zero(bid_outputs);
    RoundRobinArbiter& arb = sa_output_arbiters_[static_cast<std::size_t>(op)];
    const int ip = arb.arbitrate(
        std::exchange(sa_out_req_[static_cast<std::size_t>(op)], 0));
    arb.update(ip);

    // ST: move the flit through the crossbar into the retransmission buffer.
    const int ivc = sa_winner_vc_[static_cast<std::size_t>(ip)];
    InputUnit& in = *inputs_[static_cast<std::size_t>(ip)];
    auto& stream = in.vcbuf(ivc).streams.front();
    const int out_vc = stream.out_vc;
    const bool phase_down = stream.phase_down_next;
    stream.sa_eligible = now + 1;

    Flit f = in.pop_front_flit(now, ivc);  // may retire the stream (tail)
    f.vc = static_cast<VcId>(out_vc);
    f.route_phase_down = phase_down;
    // SA and ST take a cycle each before LT may send the flit.
    outputs_[static_cast<std::size_t>(op)]->accept(now, std::move(f), now + 2);
    slot_outputs_ |= 1u << op;
    ++stats_.flits_switched;
  }
}

std::vector<PacketId> Router::active_packets_to(int out_port) const {
  std::vector<PacketId> ids;
  for (const auto& in : inputs_) {
    for (int vc = 0; vc < cfg_.vcs_per_port; ++vc) {
      const auto& buf = in->vcbuf(vc);
      if (buf.streams.empty()) continue;
      const auto& s = buf.streams.front();
      if (s.state == InputUnit::PacketStream::State::kActive &&
          s.out_port == out_port) {
        ids.push_back(s.packet);
      }
    }
  }
  return ids;
}

void Router::invalidate_waiting_routes() {
  for (auto& in : inputs_) {
    for (int vc = 0; vc < cfg_.vcs_per_port; ++vc) {
      auto& buf = in->vcbuf(vc);
      for (auto& s : buf.streams) {
        if (s.state == InputUnit::PacketStream::State::kWaitVA) {
          s.state = InputUnit::PacketStream::State::kNeedRoute;
          s.out_port = -1;
        }
      }
    }
  }
}

int Router::input_occupancy() const {
  int n = 0;
  for (const auto& in : inputs_) n += in->occupancy();
  return n;
}

int Router::output_occupancy() const {
  int n = 0;
  for (const auto& out : outputs_) n += out->occupancy();
  return n;
}

bool Router::any_port_blocked(Cycle now) const {
  for (int p = 0; p < 4 && p < num_ports(); ++p) {
    if (outputs_[static_cast<std::size_t>(p)]->link() != nullptr &&
        outputs_[static_cast<std::size_t>(p)]->blocked(now)) {
      return true;
    }
  }
  return false;
}

}  // namespace htnoc
