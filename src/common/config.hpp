// Central simulation configuration. One aggregate, validated once, passed
// by const reference everywhere (no mutable globals — C++ Core Guidelines I.2).
#pragma once

#include <cstdint>
#include <string>

namespace htnoc {

/// Where retransmission buffers sit in the router (Fig. 5 of the paper).
enum class RetransmissionScheme : std::uint8_t {
  kOutputBuffer,  ///< Shared pool after the crossbar (paper's worst case).
  kPerVcBuffer,   ///< Dedicated slots per VC.
};

/// Fabric kind. Both are 2-D meshes described by MeshGeometry and routed
/// x-y by default; they differ only in how many cores share a router. The
/// paper's platform is the 4x4 concentrated mesh; the plain mesh opens the
/// large-fabric regimes the refined-DoS literature targets. The values are
/// stored in spec files, campaign descriptors, snapshot fingerprints and
/// trace headers, so they never change.
enum class TopologyKind : std::uint8_t {
  kConcentratedMesh = 0,  ///< w x h routers, `concentration` cores each.
  kMesh = 1,              ///< Plain k x k mesh, one core per router.
};

/// Link error-control scheme. The paper evaluates SECDED ("one fault can be
/// corrected, and the second triggers retransmission") and assumes the
/// attacker knows which code guards the link; the alternatives let the
/// repo study that assumption (a 2-bit TASP payload sails silently through
/// parity-only links, while a single-bit payload already DoSes them).
enum class EccScheme : std::uint8_t {
  kSecded,  ///< Hamming(72,64): correct 1, detect 2 (the paper's platform).
  kParity,  ///< Single parity bit: detect odd-weight errors, correct none.
  kNone,    ///< Raw wires: every fault is silent data corruption.
};

/// Parameters of the simulated NoC. Defaults reproduce the paper's setup:
/// 64-core, 16-router 4x4 mesh, concentration 4, 4 VCs/port, 4x64-bit
/// buffer slots per VC, 5-stage pipeline, x-y routing, round-robin
/// arbitration, 2 GHz.
struct NocConfig {
  /// Fabric kind; defaults to the paper's concentrated mesh.
  TopologyKind topology = TopologyKind::kConcentratedMesh;
  int mesh_width = 4;
  int mesh_height = 4;
  int concentration = 4;

  int vcs_per_port = 4;
  int buffer_depth = 4;    ///< Flit slots per VC.

  /// Where retransmission buffers live (paper Fig. 5 shows both schemes).
  /// kOutputBuffer — a shared pool after the crossbar (the paper's
  /// evaluated worst case: one wedged flit can exhaust the whole port);
  /// kPerVcBuffer — dedicated slots per VC (a wedge is confined to its VC
  /// at a higher buffer cost).
  RetransmissionScheme retrans_scheme = RetransmissionScheme::kOutputBuffer;
  int retrans_depth = 4;        ///< Shared-pool slots (kOutputBuffer).
  int retrans_per_vc_depth = 2; ///< Slots per VC (kPerVcBuffer).

  /// Link error-control code (paper platform: SECDED).
  EccScheme ecc_scheme = EccScheme::kSecded;

  /// Pipeline latencies in cycles for BW/RC, VA, SA, ST, LT (5-stage).
  int stage_bw_rc = 1;
  int stage_va = 1;
  int stage_sa = 1;
  int stage_st = 1;
  int stage_lt = 1;

  int injection_queue_depth = 8;  ///< NI source-queue slots per core.

  bool tdm_enabled = false;  ///< Two-domain TDM QoS (Fig. 12a).

  /// Skip stepping routers/NIs with provably no work this cycle (see
  /// Router::has_work). Bit-exact with full stepping; off forces the
  /// everything-every-cycle loop (benchmark baseline / debugging).
  bool active_step = true;

  /// Worker threads for the intra-run parallel step (see Network::step and
  /// docs/SCALING.md). 1 = serial. Results, traces and stats are
  /// bit-identical for any value: each cycle runs as a drain phase and a
  /// compute phase over contiguous router/NI shards, with all cross-shard
  /// effects staged and merged in fixed unit order at the phase barrier.
  /// Clamped to the router count at runtime.
  int step_threads = 1;

  std::uint64_t seed = 0xC0FFEE;

  [[nodiscard]] int num_routers() const noexcept { return mesh_width * mesh_height; }
  [[nodiscard]] int num_cores() const noexcept {
    return num_routers() * concentration;
  }
  [[nodiscard]] int ports_per_router() const noexcept {
    return 4 + concentration;  // N,S,E,W + local ports
  }
  [[nodiscard]] int pipeline_depth() const noexcept {
    return stage_bw_rc + stage_va + stage_sa + stage_st + stage_lt;
  }

  /// Throws ContractViolation when any parameter is out of range, or when
  /// the fabric has more cores than a NodeId can name.
  void validate() const;
};

TopologyKind topology_kind_from_string(const std::string& s);
std::string to_string(TopologyKind k);
RetransmissionScheme retransmission_scheme_from_string(const std::string& s);
std::string to_string(RetransmissionScheme s);
EccScheme ecc_scheme_from_string(const std::string& s);
std::string to_string(EccScheme s);

}  // namespace htnoc
