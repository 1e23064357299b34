#include "verify/auditor.hpp"

#include <algorithm>
#include <sstream>

#include "common/fnv.hpp"

namespace htnoc::verify {

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kFlitLoss: return "flit_loss";
    case ViolationKind::kDuplicateDelivery: return "duplicate_delivery";
    case ViolationKind::kPurgeLeak: return "purge_leak";
    case ViolationKind::kAckSlotLeak: return "ack_slot_leak";
    case ViolationKind::kUnknownFlit: return "unknown_flit";
    case ViolationKind::kCreditConservation: return "credit_conservation";
    case ViolationKind::kSilentStarvation: return "silent_starvation";
  }
  return "?";
}

namespace {

/// Seed of the FNV-1a dedup keys for string-valued violations: the offset
/// basis short of its last decimal digit, as the keys were first recorded.
/// Keys land in the ledger and in snapshots, so the seed stays.
constexpr std::uint64_t kDetailKeySeed = 1469598103934665603ULL;

std::uint64_t uid_of(PacketId p, int seq) noexcept {
  return (static_cast<std::uint64_t>(p) << 8) ^
         static_cast<std::uint64_t>(seq & 0xFF);
}

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "cycle " << cycle << ": " << verify::to_string(kind);
  if (packet != kInvalidPacket) os << " packet=" << packet;
  if (uid != 0) os << " uid=0x" << std::hex << uid << std::dec;
  if (!detail.empty()) os << " — " << detail;
  if (!context.empty()) os << " [" << context.size() << " trace events]";
  return os.str();
}

void NetworkInvariantAuditor::on_packet_injected(Cycle now,
                                                 const PacketInfo& info) {
  for (int seq = 0; seq < info.length; ++seq) {
    const std::uint64_t uid = uid_of(info.id, seq);
    auto [it, inserted] = ledger_.try_emplace(
        uid, LedgerEntry{info.id, LedgerEntry::State::kResident, now});
    if (!inserted) {
      record(now, ViolationKind::kUnknownFlit, uid, info.id,
             "packet id reused at injection");
      it->second = LedgerEntry{info.id, LedgerEntry::State::kResident, now};
    }
    ++flits_tracked_;
  }
}

void NetworkInvariantAuditor::on_flit_delivered(Cycle now, const Flit& flit) {
  const std::uint64_t uid = flit.flit_uid();
  const auto it = ledger_.find(uid);
  if (it == ledger_.end()) {
    record(now, ViolationKind::kUnknownFlit, uid, flit.packet,
           "delivered flit was never injected");
    return;
  }
  switch (it->second.state) {
    case LedgerEntry::State::kResident:
      it->second.state = LedgerEntry::State::kDelivered;
      it->second.since = now;
      break;
    case LedgerEntry::State::kDelivered:
      record(now, ViolationKind::kDuplicateDelivery, uid, flit.packet,
             "flit consumed by an ejection sink twice");
      break;
    case LedgerEntry::State::kPurged:
      record(now, ViolationKind::kPurgeLeak, uid, flit.packet,
             "flit delivered after its packet was purged");
      break;
  }
}

void NetworkInvariantAuditor::on_flits_purged(
    Cycle now, PacketId p, const std::vector<std::uint64_t>& uids) {
  purged_packets_.insert(p);
  for (const std::uint64_t uid : uids) {
    const auto it = ledger_.find(uid);
    if (it == ledger_.end()) {
      record(now, ViolationKind::kUnknownFlit, uid, p,
             "purged flit was never injected");
      continue;
    }
    it->second.state = LedgerEntry::State::kPurged;
    it->second.since = now;
  }
  // The purge claims the whole packet left the fabric, so flip every
  // still-resident flit of `p` — not only the listed uids. A purge that
  // skipped a slot (and its uid) is then still caught by the census as a
  // kPurgeLeak instead of silently passing as "resident".
  const std::uint64_t lo = uid_of(p, 0);
  for (auto it = ledger_.lower_bound(lo);
       it != ledger_.end() && it->first <= (lo | 0xFF); ++it) {
    if (it->second.packet != p) continue;
    if (it->second.state == LedgerEntry::State::kResident) {
      it->second.state = LedgerEntry::State::kPurged;
      it->second.since = now;
    }
  }
}

void NetworkInvariantAuditor::on_cycle_end() {
  const Cycle now = net_.now();
  if (cfg_.period > 1 && now % cfg_.period != 0) return;
  ++audits_run_;
  audit(now);
}

void NetworkInvariantAuditor::audit(Cycle now) {
  check_census(now);
  const std::string credit = net_.check_invariants();
  if (!credit.empty()) {
    record(now, ViolationKind::kCreditConservation,
           fnv1a(credit.data(), credit.size(), kDetailKeySeed),
           kInvalidPacket, credit);
  }
  check_starvation(now);
}

void NetworkInvariantAuditor::check_census(Cycle now) {
  census_.clear();
  net_.collect_resident(census_);
  std::sort(census_.begin(), census_.end(),
            [](const ResidentFlit& a, const ResidentFlit& b) {
              return a.uid < b.uid;
            });

  // Merge-walk the sorted census against the uid-ordered ledger.
  std::size_t i = 0;
  auto it = ledger_.begin();
  while (i < census_.size() || it != ledger_.end()) {
    if (it == ledger_.end() ||
        (i < census_.size() && census_[i].uid < it->first)) {
      // Census uid with no ledger entry: a flit that was never injected.
      const ResidentFlit& r = census_[i];
      std::ostringstream os;
      os << "resident flit without an injection record at "
         << htnoc::to_string(r.site) << " node=" << r.node
         << " port=" << static_cast<int>(r.port);
      record(now, ViolationKind::kUnknownFlit, r.uid, r.packet, os.str());
      const std::uint64_t uid = r.uid;
      while (i < census_.size() && census_[i].uid == uid) ++i;
      continue;
    }
    if (i >= census_.size() || it->first < census_[i].uid) {
      // Ledger uid absent from the census.
      LedgerEntry& e = it->second;
      if (e.state == LedgerEntry::State::kResident) {
        std::ostringstream os;
        os << "flit vanished from the fabric (resident since cycle "
           << e.since << ")";
        record(now, ViolationKind::kFlitLoss, it->first, e.packet, os.str());
        it = ledger_.erase(it);
      } else if (now > e.since + cfg_.ack_grace) {
        // Fully retired (delivered/purged, no residue left): garbage-collect
        // so the ledger tracks only in-flight and recently-retired flits.
        it = ledger_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    // Present in both. A flit may occupy several sites at once (slot +
    // receiver buffer while the ACK is in flight); all share the verdict.
    const std::uint64_t uid = it->first;
    const LedgerEntry& e = it->second;
    const ResidentFlit& r = census_[i];
    if (e.state == LedgerEntry::State::kPurged) {
      std::ostringstream os;
      os << "flit of purged packet still resident at "
         << htnoc::to_string(r.site) << " node=" << r.node
         << " port=" << static_cast<int>(r.port);
      record(now, ViolationKind::kPurgeLeak, uid, e.packet, os.str());
    } else if (e.state == LedgerEntry::State::kDelivered &&
               now > e.since + cfg_.ack_grace) {
      std::ostringstream os;
      os << "flit delivered at cycle " << e.since << " still resident at "
         << htnoc::to_string(r.site) << " node=" << r.node
         << " port=" << static_cast<int>(r.port)
         << " (ACK never cleared the slot?)";
      record(now, ViolationKind::kAckSlotLeak, uid, e.packet, os.str());
    }
    while (i < census_.size() && census_[i].uid == uid) ++i;
    ++it;
  }
}

void NetworkInvariantAuditor::check_starvation(Cycle now) {
  const auto& geom = net_.geometry();
  const int routers = geom.num_routers();
  if (routers == 0) return;
  const int ports = net_.router(0).num_ports();
  const int vcs = net_.config().vcs_per_port;
  hol_.resize(static_cast<std::size_t>(routers) *
              static_cast<std::size_t>(ports) * static_cast<std::size_t>(vcs));

  for (int r = 0; r < routers; ++r) {
    Router& router = net_.router(static_cast<RouterId>(r));
    // Any blocked output port means the saturation machinery has fired (or
    // would, were anyone sampling): back-pressure stalls on this router are
    // accounted for and not "silent".
    bool blocked = false;
    for (int p = 0; p < ports && !blocked; ++p) {
      blocked = router.output(p).blocked(now);
    }
    for (int p = 0; p < ports; ++p) {
      const InputUnit& in = router.input(p);
      for (int vc = 0; vc < vcs; ++vc) {
        HolWatch& w =
            hol_[(static_cast<std::size_t>(r) * static_cast<std::size_t>(ports) +
                  static_cast<std::size_t>(p)) *
                     static_cast<std::size_t>(vcs) +
                 static_cast<std::size_t>(vc)];
        const auto& buf = in.vcbuf(vc);
        // Only committed (kActive) streams are watched: a stream holding an
        // output VC with its in-order flit ready has nothing between it and
        // the crossbar except arbitration (fair) or back-pressure (which
        // shows up as a blocked output port above).
        if (buf.streams.empty() ||
            buf.streams.front().state != InputUnit::PacketStream::State::kActive ||
            !in.front_flit_ready(now, vc)) {
          w = HolWatch{};
          continue;
        }
        const InputUnit::PacketStream& s = buf.streams.front();
        if (w.packet != s.packet || w.next_seq != s.next_seq) {
          w.packet = s.packet;
          w.next_seq = s.next_seq;
          w.ready_since = now;
          continue;
        }
        if (blocked) {
          // Progress is legitimately stalled; restart the clock so the watch
          // re-arms only after the congestion report clears.
          w.ready_since = now;
          continue;
        }
        if (now - w.ready_since >= cfg_.deadlock_horizon) {
          std::ostringstream os;
          os << "router " << r << " port " << p << " vc " << vc
             << ": in-order flit of packet " << s.packet << " (seq "
             << s.next_seq << ") ready but unserved for "
             << (now - w.ready_since)
             << " cycles with no blocked-port report";
          const std::uint64_t key =
              (static_cast<std::uint64_t>(r) << 32) |
              (static_cast<std::uint64_t>(p) << 16) |
              static_cast<std::uint64_t>(vc);
          record(now, ViolationKind::kSilentStarvation, key, s.packet,
                 os.str());
          w.ready_since = now;  // re-arm instead of re-reporting every cycle
        }
      }
    }
  }
}

void NetworkInvariantAuditor::record(Cycle now, ViolationKind kind,
                                     std::uint64_t uid, PacketId packet,
                                     std::string detail) {
  if (already_reported(kind, uid)) return;
  if (violations_.size() >= cfg_.max_violations) return;
  Violation v;
  v.cycle = now;
  v.kind = kind;
  v.uid = uid;
  v.packet = packet;
  v.detail = std::move(detail);
  if (sink_ != nullptr && cfg_.trace_context > 0) {
    std::vector<trace::Event> tail = sink_->snapshot();
    if (tail.size() > cfg_.trace_context) {
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(cfg_.trace_context));
    }
    v.context = std::move(tail);
  }
  violations_.push_back(std::move(v));
}

bool NetworkInvariantAuditor::already_reported(ViolationKind kind,
                                               std::uint64_t key) {
  return !reported_.emplace(key, static_cast<int>(kind)).second;
}

std::string NetworkInvariantAuditor::report() const {
  std::ostringstream os;
  for (const Violation& v : violations_) os << v.to_string() << "\n";
  return os.str();
}

}  // namespace htnoc::verify
