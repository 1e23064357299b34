#include "common/config.hpp"

#include "common/expect.hpp"
#include "common/types.hpp"

namespace htnoc {

void NocConfig::validate() const {
  HTNOC_EXPECT(topology == TopologyKind::kConcentratedMesh ||
               topology == TopologyKind::kMesh);
  HTNOC_EXPECT(mesh_width >= 2 && mesh_width <= 64);
  HTNOC_EXPECT(mesh_height >= 2 && mesh_height <= 64);
  HTNOC_EXPECT(concentration >= 1 && concentration <= 16);
  HTNOC_EXPECT(vcs_per_port >= 1 && vcs_per_port <= 16);
  HTNOC_EXPECT(buffer_depth >= 1 && buffer_depth <= 64);
  HTNOC_EXPECT(retrans_depth >= 1 && retrans_depth <= 64);
  HTNOC_EXPECT(retrans_per_vc_depth >= 1 && retrans_per_vc_depth <= 64);
  HTNOC_EXPECT(stage_bw_rc >= 1 && stage_va >= 1 && stage_sa >= 1 &&
               stage_st >= 1 && stage_lt >= 1);
  HTNOC_EXPECT(injection_queue_depth >= 1);
  HTNOC_EXPECT(step_threads >= 1 && step_threads <= 256);
  // TDM needs an even VC split between the two domains.
  if (tdm_enabled) HTNOC_EXPECT(vcs_per_port % 2 == 0);
  // The plain mesh is the one-core-per-router fabric; a concentrated mesh
  // is its own topology kind, so an accidental concentration carry-over
  // from the cmesh default is a config bug worth failing loudly on.
  if (topology == TopologyKind::kMesh) HTNOC_EXPECT(concentration == 1);
  // Core ids are NodeIds, and the largest one is kInvalidNode: a 64x64
  // fabric with concentration 16 has one core too many.
  HTNOC_EXPECT(num_cores() <= static_cast<int>(kInvalidNode));
}

TopologyKind topology_kind_from_string(const std::string& s) {
  if (s == "cmesh") return TopologyKind::kConcentratedMesh;
  if (s == "mesh") return TopologyKind::kMesh;
  throw ContractViolation("unknown topology kind: " + s);
}

std::string to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kConcentratedMesh: return "cmesh";
    case TopologyKind::kMesh: return "mesh";
  }
  return "?";
}

RetransmissionScheme retransmission_scheme_from_string(const std::string& s) {
  if (s == "output") return RetransmissionScheme::kOutputBuffer;
  if (s == "per_vc") return RetransmissionScheme::kPerVcBuffer;
  throw ContractViolation("unknown retransmission scheme: " + s);
}

std::string to_string(RetransmissionScheme s) {
  switch (s) {
    case RetransmissionScheme::kOutputBuffer: return "output";
    case RetransmissionScheme::kPerVcBuffer: return "per_vc";
  }
  return "?";
}

EccScheme ecc_scheme_from_string(const std::string& s) {
  if (s == "secded") return EccScheme::kSecded;
  if (s == "parity") return EccScheme::kParity;
  if (s == "none") return EccScheme::kNone;
  throw ContractViolation("unknown ecc scheme: " + s);
}

std::string to_string(EccScheme s) {
  switch (s) {
    case EccScheme::kSecded: return "secded";
    case EccScheme::kParity: return "parity";
    case EccScheme::kNone: return "none";
  }
  return "?";
}

}  // namespace htnoc
