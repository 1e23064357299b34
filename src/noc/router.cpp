#include "noc/router.hpp"

#include <algorithm>

#include "noc/protocol.hpp"

namespace htnoc {

Router::Router(const NocConfig& cfg, RouterId id,
               const RoutingFunction* routing)
    : cfg_(cfg), id_(id), routing_(routing), codec_(cfg.ecc_scheme) {
  HTNOC_EXPECT(routing != nullptr);
  const int ports = cfg_.ports_per_router();
  inputs_.reserve(static_cast<std::size_t>(ports));
  outputs_.reserve(static_cast<std::size_t>(ports));
  for (int p = 0; p < ports; ++p) {
    inputs_.push_back(std::make_unique<InputUnit>(cfg_, id_, p));
    outputs_.push_back(std::make_unique<OutputUnit>(
        cfg_, "r" + std::to_string(id_) + ".out" + std::to_string(p)));
  }
  const int nreq = ports * cfg_.vcs_per_port;
  va_arbiters_.assign(static_cast<std::size_t>(nreq), RoundRobinArbiter(nreq));
  sa_input_arbiters_.assign(static_cast<std::size_t>(ports),
                            RoundRobinArbiter(cfg_.vcs_per_port));
  sa_output_arbiters_.assign(static_cast<std::size_t>(ports),
                             RoundRobinArbiter(ports));
  // Arbitration scratch is sized once here and reused every cycle; the
  // request bitmaps are all-false between stage calls (each stage wipes
  // exactly the rows it touched).
  va_requests_.assign(static_cast<std::size_t>(nreq),
                      std::vector<bool>(static_cast<std::size_t>(nreq), false));
  va_any_.assign(static_cast<std::size_t>(nreq), false);
  va_touched_.reserve(static_cast<std::size_t>(nreq));
  sa_winner_vc_.assign(static_cast<std::size_t>(ports), -1);
  sa_vc_req_.assign(static_cast<std::size_t>(cfg_.vcs_per_port), false);
  sa_port_req_.assign(static_cast<std::size_t>(ports), false);
  lane_cw_.reserve(static_cast<std::size_t>(ports));
  lane_res_.reserve(static_cast<std::size_t>(ports));
  lane_words_.reserve(static_cast<std::size_t>(ports));
  lane_ports_.reserve(static_cast<std::size_t>(ports));
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
  for (auto& out : outputs_) out->drain_control(now);
  for (auto& in : inputs_) in->drain_link(now);
}

void Router::compute(Cycle now) {
  // Reverse-channel control first so freed slots/credits are usable this
  // cycle (they were sent >= 1 cycle ago).
  for (auto& out : outputs_) out->process_staged_control(now);
  // BW: accept phit arrivals into input buffers, SECDED-decoding all ports'
  // staged codewords as one contiguous lane batch.
  batched_bw(now);
  stage_rc(now);
  stage_va(now);
  stage_sa_st(now);
  batched_lt(now);
}

void Router::batched_bw(Cycle now) {
  // Gather staged codewords across every input port, decode them in one
  // batch (one scheme dispatch, contiguous LUT passes), then let each port
  // consume its slice. Per-port behavior — ACK/NACK order, detector
  // callbacks, trace events — is identical to per-phit decoding because the
  // decode is pure and the slices preserve staging order.
  lane_cw_.clear();
  for (auto& in : inputs_) in->append_staged_codewords(lane_cw_);
  if (lane_cw_.empty()) {
    for (auto& in : inputs_) in->process_staged(now);
    return;
  }
  lane_res_.resize(lane_cw_.size());
  codec_.decode_batch(lane_cw_.data(), lane_res_.data(), lane_cw_.size());
  std::size_t offset = 0;
  for (auto& in : inputs_) {
    const std::size_t n = in->staged_count();
    in->process_staged(now, n > 0 ? lane_res_.data() + offset : nullptr);
    offset += n;
  }
}

void Router::batched_lt(Cycle now) {
  // Plan every output port's link traversal first (slot choice, obfuscation,
  // L-Ob planning — port-ascending, exactly the pre-batch call order), then
  // SECDED-encode all planned words as one lane batch, then commit the
  // sends in the same port order so trace/injector sequences are unchanged.
  lane_words_.clear();
  lane_ports_.clear();
  const int ports = num_ports();
  for (int p = 0; p < ports; ++p) {
    OutputUnit& out = *outputs_[static_cast<std::size_t>(p)];
    if (out.plan_lt(now)) {
      lane_words_.push_back(out.planned_word());
      lane_ports_.push_back(p);
    }
  }
  if (lane_words_.empty()) return;
  lane_cw_.resize(lane_words_.size());
  codec_.encode_batch(lane_words_.data(), lane_cw_.data(), lane_words_.size());
  for (std::size_t i = 0; i < lane_ports_.size(); ++i) {
    outputs_[static_cast<std::size_t>(lane_ports_[i])]->commit_lt(now,
                                                                 lane_cw_[i]);
  }
}

void Router::step(Cycle now) {
  drain(now);
  compute(now);
}

void Router::stage_rc(Cycle now) {
  for (auto& in : inputs_) {
    for (int vc = 0; vc < cfg_.vcs_per_port; ++vc) {
      auto& buf = in->vcbuf(vc);
      if (buf.streams.empty()) continue;
      auto& stream = buf.streams.front();
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
      stream.va_eligible =
          in->front_arrival(vc) + static_cast<Cycle>(cfg_.stage_bw_rc);
      (void)now;
    }
  }
}

void Router::stage_va(Cycle now) {
  const int ports = num_ports();
  const int nreq = ports * cfg_.vcs_per_port;

  // Each waiting input VC nominates one candidate output VC.
  // va_requests_[va_arbiter_index] is the bitmap of requesting
  // (in_port, in_vc); rows are persistent scratch, all-false on entry.
  for (int ip = 0; ip < ports; ++ip) {
    for (int ivc = 0; ivc < cfg_.vcs_per_port; ++ivc) {
      auto& buf = inputs_[static_cast<std::size_t>(ip)]->vcbuf(ivc);
      if (buf.streams.empty()) continue;
      auto& stream = buf.streams.front();
      if (stream.state != InputUnit::PacketStream::State::kWaitVA) continue;
      if (stream.va_eligible > now) continue;
      const Flit& head = inputs_[static_cast<std::size_t>(ip)]->front_flit(ivc);
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
      va_requests_[static_cast<std::size_t>(ai)]
                  [static_cast<std::size_t>(requester_index(ip, ivc))] = true;
      if (!va_any_[static_cast<std::size_t>(ai)]) {
        va_any_[static_cast<std::size_t>(ai)] = true;
        va_touched_.push_back(ai);
      }
    }
  }
  if (va_touched_.empty()) return;

  for (int ai = 0; ai < nreq; ++ai) {
    if (!va_any_[static_cast<std::size_t>(ai)]) continue;
    RoundRobinArbiter& arb = va_arbiters_[static_cast<std::size_t>(ai)];
    const int winner = arb.arbitrate(va_requests_[static_cast<std::size_t>(ai)]);
    if (winner < 0) continue;
    arb.update(winner);
    const int ip = winner / cfg_.vcs_per_port;
    const int ivc = winner % cfg_.vcs_per_port;
    const int out_port = ai / cfg_.vcs_per_port;
    const int out_vc = ai % cfg_.vcs_per_port;
    auto& stream = inputs_[static_cast<std::size_t>(ip)]->vcbuf(ivc).streams.front();
    outputs_[static_cast<std::size_t>(out_port)]->allocate_vc(out_vc);
    stream.out_vc = out_vc;
    stream.state = InputUnit::PacketStream::State::kActive;
    stream.sa_eligible = now + static_cast<Cycle>(cfg_.stage_va);
    ++stats_.va_grants;
  }

  // Leave the scratch all-false for the next cycle.
  for (const int ai : va_touched_) {
    auto& row = va_requests_[static_cast<std::size_t>(ai)];
    std::fill(row.begin(), row.end(), false);
    va_any_[static_cast<std::size_t>(ai)] = false;
  }
  va_touched_.clear();
}

void Router::stage_sa_st(Cycle now) {
  const int ports = num_ports();

  // Stage 1: each input port picks one ready VC. sa_vc_req_ is persistent
  // scratch, wiped per port after arbitration.
  std::fill(sa_winner_vc_.begin(), sa_winner_vc_.end(), -1);
  for (int ip = 0; ip < ports; ++ip) {
    InputUnit& in = *inputs_[static_cast<std::size_t>(ip)];
    bool any = false;
    for (int ivc = 0; ivc < cfg_.vcs_per_port; ++ivc) {
      auto& buf = in.vcbuf(ivc);
      if (buf.streams.empty()) continue;
      auto& stream = buf.streams.front();
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
      sa_vc_req_[static_cast<std::size_t>(ivc)] = true;
      any = true;
      ++stats_.sa_requests;
    }
    if (!any) continue;
    RoundRobinArbiter& arb = sa_input_arbiters_[static_cast<std::size_t>(ip)];
    const int w = arb.arbitrate(sa_vc_req_);
    if (w >= 0) {
      arb.update(w);
      sa_winner_vc_[static_cast<std::size_t>(ip)] = w;
    }
    std::fill(sa_vc_req_.begin(), sa_vc_req_.end(), false);
  }

  // Stage 2: each output port picks one winning input port.
  for (int op = 0; op < ports; ++op) {
    bool any = false;
    for (int ip = 0; ip < ports; ++ip) {
      const int ivc = sa_winner_vc_[static_cast<std::size_t>(ip)];
      if (ivc < 0) continue;
      const auto& stream =
          inputs_[static_cast<std::size_t>(ip)]->vcbuf(ivc).streams.front();
      if (stream.out_port == op) {
        sa_port_req_[static_cast<std::size_t>(ip)] = true;
        any = true;
      }
    }
    if (!any) continue;
    RoundRobinArbiter& arb = sa_output_arbiters_[static_cast<std::size_t>(op)];
    const int ip = arb.arbitrate(sa_port_req_);
    std::fill(sa_port_req_.begin(), sa_port_req_.end(), false);
    if (ip < 0) continue;
    arb.update(ip);

    // ST: move the flit through the crossbar into the retransmission buffer.
    const int ivc = sa_winner_vc_[static_cast<std::size_t>(ip)];
    sa_winner_vc_[static_cast<std::size_t>(ip)] = -1;  // one grant per input
    InputUnit& in = *inputs_[static_cast<std::size_t>(ip)];
    auto& stream = in.vcbuf(ivc).streams.front();
    const int out_vc = stream.out_vc;
    const bool phase_down = stream.phase_down_next;
    stream.sa_eligible = now + 1;

    Flit f = in.pop_front_flit(now, ivc);  // may retire the stream (tail)
    f.vc = static_cast<VcId>(out_vc);
    f.route_phase_down = phase_down;
    outputs_[static_cast<std::size_t>(op)]->accept(
        now, std::move(f),
        now + static_cast<Cycle>(cfg_.stage_sa + cfg_.stage_st));
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
