// The experiment harness: wires a Network together with trojans, fault
// injectors, per-router threat detectors, per-port L-Ob controllers and a
// mitigation policy, and drives the whole thing cycle by cycle.
//
// Policies (paper Sec. V-B):
//   kNone    — plain retransmission forever (Fig. 11a, "no mitigation");
//   kLOb     — threat detector + s2s L-Ob obfuscation (Fig. 12b);
//   kReroute — threat detector classifies, then the link is disabled,
//              stranded packets are purged/re-injected and routing is
//              reconfigured with up*/down* (the Ariadne baseline, Fig. 10).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mitigation/lob.hpp"
#include "mitigation/threat_detector.hpp"
#include "noc/network.hpp"
#include "trace/sink.hpp"
#include "trojan/tasp.hpp"
#include "verify/auditor.hpp"

namespace htnoc::verify {
struct StateCodec;  // snapshot/restore (src/verify/snapshot.cpp)
}

namespace htnoc::sim {

enum class MitigationMode : std::uint8_t { kNone, kLOb, kReroute };

std::string to_string(MitigationMode m);
/// Inverse of to_string; throws ContractViolation on an unknown name.
MitigationMode mitigation_mode_from_string(const std::string& s);

/// One trojan implant: which link, tuned how, enabled when.
struct AttackSpec {
  LinkRef link;
  trojan::TaspParams tasp;
  Cycle enable_killsw_at = 0;  ///< Cycle the external kill switch turns on.
};

struct SimConfig {
  NocConfig noc;
  MitigationMode mode = MitigationMode::kNone;
  std::vector<AttackSpec> attacks;
  /// Optional background transient faults on every mesh link.
  double transient_phit_fault_prob = 0.0;
  /// Permanent stuck-at faults: link -> {wire -> stuck value}.
  std::vector<std::pair<LinkRef, std::map<unsigned, bool>>> permanent_faults;
  mitigation::ThreatDetectorParams detector;
  mitigation::LObParams lob;
  /// Cycles between a link's classification and the completed disable +
  /// up*/down* reconfiguration. Ariadne's distributed reconfiguration costs
  /// hundreds to thousands of cycles on a 16-64 node NoC; the attack keeps
  /// wedging the network meanwhile.
  Cycle reroute_latency = 300;
  std::uint64_t seed = 0xABCD;
  /// Event-trace capture (off by default; see src/trace). When enabled and
  /// tracing is compiled in, the simulator owns a TraceSink and threads taps
  /// through every instrumented component.
  trace::TraceConfig trace;
  /// Per-cycle whole-fabric invariant auditing (off by default; see
  /// src/verify). When enabled the simulator owns a NetworkInvariantAuditor
  /// wired into every NI and purge path.
  verify::AuditConfig audit;
};

class Simulator {
 public:
  struct Stats {
    int links_disabled = 0;
    std::uint64_t packets_purged = 0;
    /// Distinct flits removed network-wide by purges (link phits, input
    /// VC buffers, retransmission slots and NI queues, deduplicated).
    std::uint64_t flits_purged_total = 0;
    int routing_reconfigurations = 0;
    /// Classified links left in service because disabling them would have
    /// disconnected the mesh.
    int reroutes_refused_disconnect = 0;
  };

  explicit Simulator(SimConfig cfg);

  [[nodiscard]] Network& network() noexcept { return *net_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

  /// The i-th attack's trojan (kill switch control, stats).
  [[nodiscard]] trojan::Tasp& tasp(std::size_t i) {
    return *trojans_.at(i);
  }
  [[nodiscard]] std::size_t num_trojans() const noexcept {
    return trojans_.size();
  }

  [[nodiscard]] mitigation::RouterThreatDetector& detector(RouterId r) {
    return *detectors_.at(r);
  }
  [[nodiscard]] mitigation::LObController& lob(RouterId r, int port) {
    return *lobs_.at({r, port});
  }
  [[nodiscard]] bool has_lob() const noexcept { return !lobs_.empty(); }

  /// Invoked with the id of every purged packet so the traffic layer can
  /// re-inject it (end-to-end recovery).
  using DropCallback = std::function<void(PacketId)>;
  void set_drop_callback(DropCallback cb) { on_drop_ = std::move(cb); }

  /// Advance one cycle: kill-switch schedule, reroute policy, network step.
  void step();
  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) step();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The owned trace sink, or nullptr when tracing is disabled (or compiled
  /// out).
  [[nodiscard]] trace::TraceSink* trace_sink() noexcept {
    return trace_sink_.get();
  }
  [[nodiscard]] const trace::TraceSink* trace_sink() const noexcept {
    return trace_sink_.get();
  }

  /// The owned invariant auditor, or nullptr when auditing is disabled.
  [[nodiscard]] verify::NetworkInvariantAuditor* auditor() noexcept {
    return auditor_.get();
  }
  [[nodiscard]] const verify::NetworkInvariantAuditor* auditor()
      const noexcept {
    return auditor_.get();
  }

 private:
  friend struct htnoc::verify::StateCodec;

  void apply_kill_switch_schedule();
  void process_reroute_events();
  [[nodiscard]] LinkRef link_feeding(RouterId receiver, int in_port) const;

  SimConfig cfg_;
  std::unique_ptr<trace::TraceSink> trace_sink_;  ///< Before net_: outlives taps.
  std::unique_ptr<Network> net_;
  /// After net_: the auditor holds a reference to the network.
  std::unique_ptr<verify::NetworkInvariantAuditor> auditor_;
  std::vector<std::shared_ptr<trojan::Tasp>> trojans_;
  std::vector<std::unique_ptr<mitigation::RouterThreatDetector>> detectors_;
  std::map<std::pair<RouterId, int>, std::unique_ptr<mitigation::LObController>>
      lobs_;
  /// Reroute events flagged by detectors, applied after reroute_latency.
  struct PendingReroute {
    RouterId receiver;
    int in_port;
    Cycle ready_at;
  };
  std::vector<PendingReroute> pending_reroutes_;
  DropCallback on_drop_;
  Stats stats_;
};

}  // namespace htnoc::sim
