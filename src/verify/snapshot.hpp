// Deterministic full-state snapshot/restore of a running Simulator.
//
// save_snapshot serializes every piece of mutable simulation state — router
// input buffers and scramble stations, retransmission slots, in-flight link
// phits and reverse-channel messages, NI queues, arbiter priorities, fault-
// injector and trojan FSMs, detector/L-Ob state, the invariant auditor's
// ledger, the trace ring window and every RNG stream — into a versioned,
// integrity-checked binary blob. load_snapshot restores that blob into a
// freshly constructed Simulator built from a substrate-compatible SimConfig;
// the restored simulation then resumes bit-identically (same per-cycle
// state digests, same trace bytes) at any step_threads setting.
//
// state_digest folds the very same field walk into one 64-bit word without
// building a blob. It is the project's "bit-identical" yardstick: the
// goldens, the parallel-step and snapshot round-trip suites compare it every
// cycle, so "same results" covers every field a snapshot covers.
//
// The blob's envelope carries a fingerprint of the substrate configuration
// (topology, buffer geometry, ECC/retransmission schemes — everything that
// shapes the serialized containers) so a blob can only be restored into a
// structurally identical fabric. Seeds, attack schedules,
// mitigation mode and step_threads are deliberately NOT part of the
// fingerprint: the fault campaign's snapshot-forking warmup restores one
// warmed-up fabric into many differently attacked scenarios.
//
// Snapshots are only valid at a cycle boundary (between Simulator::step
// calls): the two-phase step's staging buffers must be empty, and save
// throws SnapshotError if they are not.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace htnoc {
struct NocConfig;
}
namespace htnoc::sim {
class Simulator;
}
namespace htnoc::traffic {
class TrafficGenerator;
}

namespace htnoc::verify {

/// Snapshot save/restore failed: incompatible target, corrupt or truncated
/// blob, or a simulator not at a cycle boundary.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Current snapshot layout version (envelope field). Bump on any layout
/// change; load_snapshot rejects other versions.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// FNV-1a over the structural NocConfig fields a blob depends on (topology,
/// dimensions, buffer/VC geometry, retransmission + ECC schemes, injection
/// queue depth, TDM) and the router's fixed stage latencies. Excludes seeds,
/// step_threads and active_step — those do not shape the serialized state.
[[nodiscard]] std::uint64_t substrate_fingerprint(const NocConfig& cfg);

/// Serialize the simulator (and the traffic generators driving it, in
/// attach order) at the current cycle boundary. Throws SnapshotError when
/// mid-cycle staging buffers are non-empty.
[[nodiscard]] std::vector<std::uint8_t> save_snapshot(
    const sim::Simulator& sim,
    const std::vector<const traffic::TrafficGenerator*>& generators = {});

/// Digest of everything save_snapshot would serialize (the simulator and
/// `generators`, in order), folded one field at a time: a difference in any
/// single field changes it. Not the envelope's payload digest. Throws
/// SnapshotError wherever save_snapshot would.
[[nodiscard]] std::uint64_t state_digest(
    const sim::Simulator& sim,
    const std::vector<const traffic::TrafficGenerator*>& generators = {});

/// Restore a blob into a freshly constructed Simulator whose SimConfig has
/// the same substrate fingerprint. `generators` must pair with the blob's
/// generator sections (same count, same order). Component sections beyond
/// the substrate follow a fork-friendly contract: link fault injectors are
/// prefix-matched by name (a blob saved with fewer injectors leaves the
/// extras fresh — how a clean warmup forks into attacked scenarios), and an
/// empty detector/L-Ob section leaves the target's mitigation state fresh.
/// Auditor and trace-sink presence must match exactly. Throws SnapshotError
/// on any mismatch, bad magic/version, truncation or digest failure.
void load_snapshot(sim::Simulator& sim,
                   const std::vector<traffic::TrafficGenerator*>& generators,
                   const std::vector<std::uint8_t>& blob);

}  // namespace htnoc::verify
