#include "trace/forensics.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

namespace htnoc::trace {
namespace {

// Display names matching the detector's LinkThreatClass and the noc layer's
// ObfMethod encodings (documented in docs/OBSERVABILITY.md). The trace
// layer sits below mitigation/, so the mapping is by convention.
const char* class_name(std::uint8_t c) {
  switch (c) {
    case 0: return "clean";
    case 1: return "transient";
    case 2: return "suspect";
    case 3: return "permanent";
    case 4: return "trojan";
    default: return "unknown";
  }
}

const char* method_name(std::uint64_t m) {
  switch (m) {
    case 0: return "none";
    case 1: return "invert";
    case 2: return "shuffle";
    case 3: return "scramble";
    case 4: return "reorder";
    default: return "unknown";
  }
}

std::string unit_name(const Event& e) {
  const char* kDirs = "NSEW";
  std::ostringstream os;
  switch (e.scope) {
    case Scope::kRouter:
      os << "router " << e.node;
      if (e.port >= 0) os << " port " << static_cast<int>(e.port);
      break;
    case Scope::kLink:
      if (e.port >= 0 && e.port < 4) {
        os << "link r" << e.node << "." << kDirs[e.port];
      } else if (e.port == kLinkPortInjection) {
        os << "link core" << e.node << ".inj";
      } else {
        os << "link core" << e.node << ".ej";
      }
      break;
    case Scope::kCore:
      os << "core " << e.node;
      break;
    case Scope::kNetwork:
      os << "network";
      break;
  }
  return os.str();
}

void milestone(ForensicReport& r, Cycle& slot, const Event& e,
               const std::string& text) {
  if (slot != ForensicReport::kNever) return;
  slot = e.cycle;
  r.ladder.push_back({e.cycle, text});
}

}  // namespace

ForensicReport analyze(const TraceLog& log) {
  ForensicReport r;
  r.num_routers = log.num_routers;

  std::set<std::uint16_t> ever_blocked;
  std::set<std::uint16_t> blocked_now;
  std::set<std::uint16_t> cores_blocked_now;
  std::vector<ForensicReport::WavefrontEntry> wavefront;

  const std::size_t half =
      r.num_routers > 0 ? (r.num_routers + 1) / 2 : ~std::size_t{0};
  // The paper's claim: back-pressure reaches >= 68% of routers (11 of 16
  // in the 4x4 CMesh) within ~50-100 cycles of the sustained trigger.
  const std::size_t majority68 =
      r.num_routers > 0
          ? (static_cast<std::size_t>(r.num_routers) * 68 + 99) / 100
          : ~std::size_t{0};

  // The wavefront measures the *attack's* spread, so it starts at the first
  // trigger; momentary congestion blocks during warm-up don't count. With
  // no trigger in the window the whole window is the measurement.
  Cycle trigger_cycle = ForensicReport::kNever;
  for (const Event& e : log.events) {
    if (e.type == EventType::kTrojanTriggered) {
      trigger_cycle = e.cycle;  // events are chronological
      break;
    }
  }

  const auto add_to_wavefront = [&](std::uint16_t node, Cycle cycle) {
    if (!ever_blocked.insert(node).second) return;
    wavefront.push_back({node, cycle});
    if (ever_blocked.size() == half) r.cycle_half_blocked = cycle;
    if (ever_blocked.size() == majority68) {
      r.cycle_majority68_blocked = cycle;
    }
  };

  for (const Event& e : log.events) {
    switch (e.type) {
      case EventType::kTrojanTriggered:
        ++r.trojan_injections;
        if (r.first_trigger == ForensicReport::kNever) {
          // Routers already wedged when the attack began are part of the
          // saturated set from t0 onward.
          for (const std::uint16_t node : blocked_now) {
            add_to_wavefront(node, e.cycle);
          }
        }
        milestone(r, r.first_trigger, e,
                  "first trojan trigger on " + unit_name(e) + " (packet " +
                      std::to_string(e.packet) + " seq " +
                      std::to_string(e.seq) + ")");
        break;
      case EventType::kLinkFaultInjected:
        milestone(r, r.first_fault_injected, e,
                  "first corrupted codeword crossed " + unit_name(e));
        break;
      case EventType::kEccUncorrectable:
        ++r.uncorrectable_flits;
        milestone(r, r.first_uncorrectable, e,
                  "first uncorrectable ECC word at " + unit_name(e));
        break;
      case EventType::kNackSent:
        ++r.nacks;
        milestone(r, r.first_nack, e, "first NACK sent from " + unit_name(e));
        break;
      case EventType::kRetransmission:
        ++r.retransmissions;
        break;
      case EventType::kDetectorEscalation:
        milestone(r, r.first_escalation, e,
                  "detector advised obfuscation escalation at " +
                      unit_name(e) + " (fault count " +
                      std::to_string(e.aux) + ")");
        break;
      case EventType::kLObMethodApplied:
        milestone(r, r.first_lob_applied, e,
                  std::string("L-Ob applied method '") + method_name(e.arg) +
                      "' at " + unit_name(e));
        break;
      case EventType::kLObMethodSuccess:
        milestone(r, r.first_lob_success, e,
                  std::string("L-Ob method '") + method_name(e.arg) +
                      "' succeeded (ACK) at " + unit_name(e));
        break;
      case EventType::kBistDispatched:
        milestone(r, r.first_bist_dispatch, e,
                  "BIST dispatched at " + unit_name(e));
        break;
      case EventType::kBistCompleted:
        milestone(r, r.first_bist_complete, e,
                  std::string("BIST completed at ") + unit_name(e) +
                      (e.aux ? " (permanent fault found)" : " (link clean)"));
        break;
      case EventType::kDetectorClassified:
        r.final_class = e.aux;
        if (e.aux >= 3) {  // permanent / trojan verdicts end the ladder
          milestone(r, r.first_classification, e,
                    std::string("detector classified ") + unit_name(e) +
                        " as " + class_name(e.aux));
        } else {
          r.ladder.push_back({e.cycle, std::string("detector reclassified ") +
                                           unit_name(e) + " as " +
                                           class_name(e.aux)});
        }
        break;
      case EventType::kLinkDisabled:
        milestone(r, r.first_link_disabled, e,
                  "reroute policy disabled " + unit_name(e));
        break;
      case EventType::kRoutingReconfigured:
        milestone(r, r.first_reconfiguration, e,
                  "routing reconfigured (up*/down*), " +
                      std::to_string(e.arg) + " links disabled");
        break;
      case EventType::kPacketPurged:
        ++r.packets_purged;
        r.flits_purged += e.arg;
        break;
      case EventType::kRouterBlocked:
        blocked_now.insert(e.node);
        if (trigger_cycle == ForensicReport::kNever ||
            e.cycle >= trigger_cycle) {
          add_to_wavefront(e.node, e.cycle);
        }
        break;
      case EventType::kRouterUnblocked:
        blocked_now.erase(e.node);
        break;
      case EventType::kInjectionBlocked:
        cores_blocked_now.insert(e.node);
        break;
      case EventType::kInjectionUnblocked:
        cores_blocked_now.erase(e.node);
        break;
      default:
        break;
    }
  }

  std::sort(wavefront.begin(), wavefront.end(),
            [](const auto& a, const auto& b) {
              return a.first_blocked != b.first_blocked
                         ? a.first_blocked < b.first_blocked
                         : a.router < b.router;
            });
  r.wavefront = std::move(wavefront);
  r.routers_ever_blocked = ever_blocked.size();
  r.routers_blocked_at_end = blocked_now.size();
  r.cores_blocked_at_end = cores_blocked_now.size();
  std::sort(r.ladder.begin(), r.ladder.end(),
            [](const auto& a, const auto& b) { return a.cycle < b.cycle; });
  return r;
}

void print_timeline(std::ostream& os, const TraceLog& log,
                    const ForensicReport& r) {
  constexpr Cycle kNever = ForensicReport::kNever;
  os << "=== attack forensics timeline ===\n";
  os << "window: " << log.events.size() << " events captured ("
     << log.total_recorded << " recorded, " << log.dropped()
     << " dropped by ring)";
  if (!log.events.empty()) {
    os << ", cycles " << log.events.front().cycle << ".."
       << log.events.back().cycle;
  }
  os << "\n";
  os << "volume: " << r.trojan_injections << " trojan injections, "
     << r.uncorrectable_flits << " uncorrectable flits, " << r.nacks
     << " NACKs, " << r.retransmissions << " retransmissions, "
     << r.packets_purged << " packets purged (" << r.flits_purged
     << " flits)\n\n";

  os << "--- escalation ladder ---\n";
  // A full ring overwrote its oldest events, so the run's true firsts may
  // be gone; say which window the "first ..." milestones are firsts of.
  if (log.dropped() > 0 && !log.events.empty()) {
    os << "(the ring dropped the oldest " << log.dropped()
       << " events: each \"first ...\" milestone is the first inside the "
          "kept window, which starts at cycle "
       << log.events.front().cycle << ")\n";
  }
  if (r.ladder.empty()) os << "(no milestones in window)\n";
  for (const auto& m : r.ladder) {
    os << "cycle " << m.cycle;
    if (r.first_trigger != kNever && m.cycle >= r.first_trigger) {
      os << " (+" << m.cycle - r.first_trigger << ")";
    }
    os << ": " << m.text << "\n";
  }

  os << "\n--- saturation wavefront ---\n";
  if (r.wavefront.empty()) {
    os << "(no router ever blocked)\n";
  } else {
    os << "router  first_blocked";
    if (r.first_trigger != kNever) os << "  after_trigger";
    os << "  cumulative\n";
    std::size_t n = 0;
    for (const auto& w : r.wavefront) {
      ++n;
      os << "r" << w.router << (w.router < 10 ? " " : "") << "      "
         << w.first_blocked;
      if (r.first_trigger != kNever) {
        if (w.first_blocked >= r.first_trigger) {
          os << "  +" << w.first_blocked - r.first_trigger;
        } else {
          os << "  (pre-trigger)";
        }
      }
      os << "  " << n << "/" << r.num_routers << "\n";
    }
  }

  os << "\nsummary: " << r.routers_ever_blocked << "/" << r.num_routers
     << " routers ever blocked, " << r.routers_blocked_at_end
     << " still blocked at end of window, " << r.cores_blocked_at_end
     << " cores refusing injections\n";
  if (r.cycle_majority68_blocked != kNever) {
    os << ">=68% of routers first blocked by cycle "
       << r.cycle_majority68_blocked;
    const Cycle d = r.trigger_to_majority68();
    if (d != kNever) {
      os << " — " << d << " cycles after the first trigger (paper claims"
         << " ~50-100)";
    }
    os << "\n";
  } else {
    os << ">=68% wavefront mark not reached in this window\n";
  }
}

}  // namespace htnoc::trace
