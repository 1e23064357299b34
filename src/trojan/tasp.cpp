#include "trojan/tasp.hpp"

#include <algorithm>

namespace htnoc::trojan {

std::string to_string(TargetKind k) {
  switch (k) {
    case TargetKind::kFull: return "full";
    case TargetKind::kDest: return "dest";
    case TargetKind::kSrc: return "src";
    case TargetKind::kDestSrc: return "dest_src";
    case TargetKind::kMem: return "mem";
    case TargetKind::kVc: return "vc";
    case TargetKind::kThread: return "thread";
  }
  return "?";
}

unsigned target_width(TargetKind k) {
  switch (k) {
    case TargetKind::kFull: return 42;
    case TargetKind::kDest: return 4;
    case TargetKind::kSrc: return 4;
    case TargetKind::kDestSrc: return 8;
    case TargetKind::kMem: return 32;
    case TargetKind::kVc: return 2;
    case TargetKind::kThread: return 6;
  }
  return 0;
}

Tasp::Tasp(TaspParams params) : params_(params), codec_(params_.ecc) {
  HTNOC_EXPECT(params_.payload_states >= 2 &&
               params_.payload_states <= static_cast<int>(Codeword72::kBits));
  HTNOC_EXPECT(params_.min_gap >= 1);
  // The XOR tree taps Y wires spread evenly across the wires the link code
  // actually uses (the attacker knows the ECC, Sec. III-B) — the design-
  // time choice that maximizes location diversity for a given flip-flop
  // budget without wasting taps on dead wires.
  const unsigned span = ecc::used_wires_for(params_.ecc);
  tap_wires_.reserve(static_cast<std::size_t>(params_.payload_states));
  for (int i = 0; i < params_.payload_states; ++i) {
    tap_wires_.push_back(static_cast<unsigned>(
        (static_cast<std::uint64_t>(i) * span) /
        static_cast<std::uint64_t>(params_.payload_states)));
  }
}

bool Tasp::matches(std::uint64_t w) const noexcept {
  // Deep packet inspection keys on header flits; the flit-type wire bits
  // gate the comparator.
  if (params_.only_head_flits && !is_head(wire::type_of(w))) return false;

  const auto src = static_cast<RouterId>(extract_bits(w, wire::kSrcPos, wire::kSrcWidth));
  const auto dest =
      static_cast<RouterId>(extract_bits(w, wire::kDestPos, wire::kDestWidth));
  const auto vc = static_cast<VcId>(extract_bits(w, wire::kVcPos, wire::kVcWidth));
  const auto mem =
      static_cast<std::uint32_t>(extract_bits(w, wire::kMemPos, wire::kMemWidth));

  switch (params_.kind) {
    case TargetKind::kFull:
      return src == params_.target_src && dest == params_.target_dest &&
             vc == params_.target_vc &&
             (mem & params_.mem_mask) == (params_.target_mem & params_.mem_mask);
    case TargetKind::kDest: return dest == params_.target_dest;
    case TargetKind::kSrc: return src == params_.target_src;
    case TargetKind::kDestSrc:
      return src == params_.target_src && dest == params_.target_dest;
    case TargetKind::kMem:
      return (mem & params_.mem_mask) == (params_.target_mem & params_.mem_mask);
    case TargetKind::kVc: return vc == params_.target_vc;
    case TargetKind::kThread:
      return static_cast<std::uint8_t>(
                 extract_bits(w, wire::kThreadPos, wire::kThreadWidth)) ==
             (params_.target_thread & 0x3F);
  }
  return false;
}

std::vector<unsigned> Tasp::payload_wires(int state) const {
  HTNOC_EXPECT(state >= 0 && state < params_.payload_states);
  const int y = params_.payload_states;
  const int flips = flips_per_injection();
  // Stride at least 1 so the wires of one injection are always distinct.
  const int stride = std::max(1, y / 2 - 1);
  std::vector<unsigned> wires;
  wires.reserve(static_cast<std::size_t>(flips));
  for (int i = 0; i < flips; ++i) {
    wires.push_back(tap_wires_[static_cast<std::size_t>((state + i * stride) % y)]);
  }
  // Deduplicate defensively (possible only for tiny Y with 3-bit payloads).
  for (std::size_t i = 1; i < wires.size(); ++i) {
    while (true) {
      bool dup = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (wires[j] == wires[i]) {
          dup = true;
          break;
        }
      }
      if (!dup) break;
      wires[i] = (wires[i] + 1) % Codeword72::kBits;
    }
  }
  return wires;
}

void Tasp::on_traverse(Cycle now, LinkPhit& phit) {
  if (!killsw_) {
    state_ = State::kIdle;
    return;
  }
  if (state_ == State::kIdle) state_ = State::kActive;

  ++stats_.flits_inspected;
  const std::uint64_t w = codec_.extract_data(phit.codeword);
  if (!matches(w)) return;

  ++stats_.target_sightings;
  // Hold fire inside the minimum gap: the payload counter holds its state
  // (less switching power, fewer repeats on the same wires).
  if (injected_once_ && now < last_injection_ + params_.min_gap) return;

  state_ = State::kAttacking;
  for (const unsigned wire_pos : payload_wires(payload_state_)) {
    phit.codeword.flip(wire_pos);
  }
  if (tap_.on(trace::Category::kTrojan)) {
    trace::Event e = trace::make_event(trace::EventType::kTrojanTriggered, now,
                                       trace::Scope::kLink, trace_node_,
                                       trace_port_);
    e.packet = phit.flit.packet;
    e.seq = static_cast<std::uint32_t>(phit.flit.seq);
    e.vc = static_cast<std::uint8_t>(phit.flit.vc);
    e.aux = static_cast<std::uint8_t>(payload_state_);
    e.arg = w;
    tap_.emit(e);
    e.type = trace::EventType::kTrojanPayloadAdvance;
    e.aux = static_cast<std::uint8_t>((payload_state_ + 1) %
                                      params_.payload_states);
    tap_.emit(e);
  }
  payload_state_ = (payload_state_ + 1) % params_.payload_states;
  last_injection_ = now;
  injected_once_ = true;
  ++stats_.injections;
}

}  // namespace htnoc::trojan
