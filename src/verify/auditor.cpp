#include "verify/auditor.hpp"

#include <algorithm>
#include <bit>
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

/// Cycles a delivered flit may remain resident upstream while its final
/// ACK clears the retransmission slot (reverse channel is 1 cycle; 8
/// leaves slack for the de-obfuscation penalty).
constexpr Cycle kAckGrace = 8;
/// Stop recording after this many violations (the first is the story).
constexpr std::size_t kMaxViolations = 16;
/// Trace events of context attached to each violation (when a sink is
/// installed).
constexpr std::size_t kTraceContext = 8;

}  // namespace

/// The audit's visitor: stamps every flit the walk hands it with this
/// audit's number and runs each router input's head-of-line watch. A flit
/// without a ledger entry, of a purged packet, or delivered longer than
/// the ACK grace ago is an anomaly the census reports after the walk.
struct NetworkInvariantAuditor::Walk {
  NetworkInvariantAuditor& aud;
  Cycle now;
  std::uint64_t stamp;
  std::size_t ports;
  std::size_t vcs;
  bool stamped_all = true;

  void flit(std::uint64_t uid) {
    LedgerEntry* const e = aud.ledger_.find(uid);
    if (e == nullptr || e->state == LedgerEntry::State::kPurged ||
        (e->state == LedgerEntry::State::kDelivered &&
         now > e->since + kAckGrace)) {
      stamped_all = false;
      return;
    }
    e->seen = stamp;
  }
  void router_input(const InputUnit& in) {
    aud.watch_input(in, now, ports, vcs);
  }
};

// --- Ledger ---

std::size_t NetworkInvariantAuditor::Ledger::home(
    std::uint64_t uid) const noexcept {
  return static_cast<std::size_t>((uid * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t NetworkInvariantAuditor::Ledger::probe(
    std::uint64_t uid) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = home(uid);
  while (index_[s] != 0 && entries_[index_[s] - 1].uid != uid) {
    s = (s + 1) & mask;
  }
  return s;
}

NetworkInvariantAuditor::LedgerEntry* NetworkInvariantAuditor::Ledger::find(
    std::uint64_t uid) {
  if (index_.empty()) return nullptr;
  const std::uint32_t at = index_[probe(uid)];
  return at == 0 ? nullptr : &entries_[at - 1];
}

std::pair<NetworkInvariantAuditor::LedgerEntry*, bool>
NetworkInvariantAuditor::Ledger::try_emplace(const LedgerEntry& e) {
  if (2 * (entries_.size() + 1) > index_.size()) {
    reindex_for(entries_.size() + 1);
  }
  const std::size_t s = probe(e.uid);
  if (index_[s] != 0) return {&entries_[index_[s] - 1], false};
  entries_.push_back(e);
  index_[s] = static_cast<std::uint32_t>(entries_.size());
  return {&entries_.back(), true};
}

void NetworkInvariantAuditor::Ledger::erase_at(std::size_t i) {
  // Backward-shift deletion: walk the rest of the probe run and pull each
  // entry whose home is not in (hole, s] back into the hole, so no
  // tombstones are needed.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = probe(entries_[i].uid);
  for (std::size_t s = (hole + 1) & mask; index_[s] != 0; s = (s + 1) & mask) {
    const std::size_t h = home(entries_[index_[s] - 1].uid);
    if (((s - h) & mask) >= ((s - hole) & mask)) {
      index_[hole] = index_[s];
      hole = s;
    }
  }
  index_[hole] = 0;
  const std::size_t last = entries_.size() - 1;
  if (i != last) {
    index_[probe(entries_[last].uid)] = static_cast<std::uint32_t>(i + 1);
    entries_[i] = entries_[last];
  }
  entries_.pop_back();
}

void NetworkInvariantAuditor::Ledger::sort_by_uid() {
  std::sort(entries_.begin(), entries_.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              return a.uid < b.uid;
            });
  reindex();
}

void NetworkInvariantAuditor::Ledger::reindex_for(std::size_t n) {
  std::size_t cap = std::max<std::size_t>(index_.size(), 64);
  while (cap < 2 * n) cap *= 2;
  index_.assign(cap, 0);  // never shrinks: the capacity is reused
  shift_ = 64 - std::countr_zero(cap);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_[probe(entries_[i].uid)] = static_cast<std::uint32_t>(i + 1);
  }
}

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
    const LedgerEntry fresh{Flit::uid_of(info.id, seq), info.id,
                            LedgerEntry::State::kResident, now};
    auto [e, inserted] = ledger_.try_emplace(fresh);
    if (!inserted) {
      record(now, ViolationKind::kUnknownFlit, fresh.uid, info.id,
             "packet id reused at injection");
      *e = fresh;
    }
    ++flits_tracked_;
  }
}

void NetworkInvariantAuditor::on_flit_delivered(Cycle now, const Flit& flit) {
  const std::uint64_t uid = flit.flit_uid();
  LedgerEntry* const e = ledger_.find(uid);
  if (e == nullptr) {
    record(now, ViolationKind::kUnknownFlit, uid, flit.packet,
           "delivered flit was never injected");
    return;
  }
  switch (e->state) {
    case LedgerEntry::State::kResident:
      e->state = LedgerEntry::State::kDelivered;
      e->since = now;
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
    LedgerEntry* const e = ledger_.find(uid);
    if (e == nullptr) {
      record(now, ViolationKind::kUnknownFlit, uid, p,
             "purged flit was never injected");
      continue;
    }
    e->state = LedgerEntry::State::kPurged;
    e->since = now;
  }
  // The purge claims the whole packet left the fabric, so flip every
  // still-resident flit of `p` — not only the listed uids. A purge that
  // skipped a slot (and its uid) is then still caught by the census as a
  // kPurgeLeak instead of silently passing as "resident". Entries of `p`
  // are exactly those injected as `p`, whose uids are uid_of(p, seq).
  for (LedgerEntry& e : ledger_.entries()) {
    if (e.packet == p && e.state == LedgerEntry::State::kResident) {
      e.state = LedgerEntry::State::kPurged;
      e.since = now;
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
  const auto routers = static_cast<std::size_t>(net_.geometry().num_routers());
  const auto ports = static_cast<std::size_t>(net_.router(0).num_ports());
  const auto vcs = static_cast<std::size_t>(net_.config().vcs_per_port);
  hol_.resize(routers * ports * vcs);
  watched_.resize(routers * ports);
  blocked_.assign(routers, -1);
  starved_.clear();

  Walk walk{*this, now, audits_run_, ports, vcs};
  const bool balanced = net_.audit_walk(walk, tally_);

  // Report in the order of the former separate checks: census, credit
  // conservation, then starvation in (router, port, vc) order.
  finish_census(now, walk.stamped_all);
  if (!balanced) {
    const std::string credit = net_.check_invariants();
    record(now, ViolationKind::kCreditConservation,
           fnv1a(credit.data(), credit.size(), kDetailKeySeed),
           kInvalidPacket, credit);
  }
  std::sort(starved_.begin(), starved_.end(),
            [](const Starved& a, const Starved& b) { return a.key < b.key; });
  for (Starved& s : starved_) {
    record(now, ViolationKind::kSilentStarvation, s.key, s.packet,
           std::move(s.detail));
  }
}

void NetworkInvariantAuditor::finish_census(Cycle now, bool stamped_all) {
  // One sweep over the ledger: an unstamped entry is absent from the
  // fabric. Resident means lost (a violation); retired past the grace
  // means fully gone, so it is garbage-collected — the same entries the
  // merge erases without a report, so erasing some before a later loss
  // sends the audit to the merge changes nothing it reports.
  if (stamped_all) {
    const std::uint64_t stamp = audits_run_;
    std::vector<LedgerEntry>& entries = ledger_.entries();
    bool lost = false;
    for (std::size_t i = 0; i < entries.size() && !lost;) {
      const LedgerEntry& e = entries[i];
      if (e.seen == stamp) {
        ++i;
      } else if (e.state == LedgerEntry::State::kResident) {
        lost = true;
      } else if (now > e.since + kAckGrace) {
        ledger_.erase_at(i);  // the last entry moves to i; visit it next
      } else {
        ++i;
      }
    }
    if (!lost) return;
  }
  census_.clear();
  net_.collect_resident(census_);
  reconcile_sorted(now);
}

void NetworkInvariantAuditor::reconcile_sorted(Cycle now) {
  std::sort(census_.begin(), census_.end(),
            [](const ResidentFlit& a, const ResidentFlit& b) {
              return a.uid < b.uid;
            });
  ledger_.sort_by_uid();
  std::vector<LedgerEntry>& ledger = ledger_.entries();

  // Merge-walk the sorted census against the uid-ordered ledger, compacting
  // the entries kept to the front.
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t kept = 0;
  while (i < census_.size() || j < ledger.size()) {
    if (j == ledger.size() ||
        (i < census_.size() && census_[i].uid < ledger[j].uid)) {
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
    if (i >= census_.size() || ledger[j].uid < census_[i].uid) {
      // Ledger uid absent from the census.
      const LedgerEntry& e = ledger[j++];
      if (e.state == LedgerEntry::State::kResident) {
        std::ostringstream os;
        os << "flit vanished from the fabric (resident since cycle "
           << e.since << ")";
        record(now, ViolationKind::kFlitLoss, e.uid, e.packet, os.str());
      } else if (now > e.since + kAckGrace) {
        // Fully retired (delivered/purged, no residue left): garbage-collect
        // so the ledger tracks only in-flight and recently-retired flits.
      } else {
        ledger[kept++] = e;
      }
      continue;
    }
    // Present in both. A flit may occupy several sites at once (slot +
    // receiver buffer while the ACK is in flight); all share the verdict.
    const LedgerEntry& e = ledger[j++];
    const std::uint64_t uid = e.uid;
    const ResidentFlit& r = census_[i];
    if (e.state == LedgerEntry::State::kPurged) {
      std::ostringstream os;
      os << "flit of purged packet still resident at "
         << htnoc::to_string(r.site) << " node=" << r.node
         << " port=" << static_cast<int>(r.port);
      record(now, ViolationKind::kPurgeLeak, uid, e.packet, os.str());
    } else if (e.state == LedgerEntry::State::kDelivered &&
               now > e.since + kAckGrace) {
      std::ostringstream os;
      os << "flit delivered at cycle " << e.since << " still resident at "
         << htnoc::to_string(r.site) << " node=" << r.node
         << " port=" << static_cast<int>(r.port)
         << " (ACK never cleared the slot?)";
      record(now, ViolationKind::kAckSlotLeak, uid, e.packet, os.str());
    }
    ledger[kept++] = e;
    while (i < census_.size() && census_[i].uid == uid) ++i;
  }
  ledger.resize(kept);
  ledger_.reindex();
}

bool NetworkInvariantAuditor::router_blocked(std::size_t r,
                                             std::size_t ports, Cycle now) {
  std::int8_t& b = blocked_[r];
  if (b < 0) {
    const Router& router = net_.router(static_cast<RouterId>(r));
    b = 0;
    for (std::size_t p = 0; p < ports && b == 0; ++p) {
      if (router.output(static_cast<int>(p)).blocked(now)) b = 1;
    }
  }
  return b != 0;
}

void NetworkInvariantAuditor::watch_input(const InputUnit& in, Cycle now,
                                          std::size_t ports, std::size_t vcs) {
  const auto r = static_cast<std::size_t>(in.router());
  const auto p = static_cast<std::size_t>(in.port());
  const std::size_t input = r * ports + p;
  std::uint32_t& watched = watched_[input];
  // A VC outside busy | watched holds no stream and a reset watch, which
  // the reset below would leave as it is.
  for (std::uint32_t m = in.busy_vcs() | watched; m != 0; m &= m - 1) {
    const int vc = std::countr_zero(m);
    const std::uint32_t bit = 1u << vc;
    HolWatch& w = hol_[input * vcs + static_cast<std::size_t>(vc)];
    const auto& buf = in.vcbuf(vc);
    // Only committed (kActive) streams are watched: a stream holding an
    // output VC with its in-order flit ready has nothing between it and
    // the crossbar except arbitration (fair) or back-pressure (which shows
    // up as a blocked output port).
    if (buf.streams.empty() ||
        buf.streams.front().state != InputUnit::PacketStream::State::kActive ||
        !in.front_flit_ready(now, vc)) {
      w = HolWatch{};
      watched &= ~bit;
      continue;
    }
    // From here on the watch holds a stream's next_seq (>= 0): armed.
    watched |= bit;
    const InputUnit::PacketStream& s = buf.streams.front();
    if (w.packet != s.packet || w.next_seq != s.next_seq) {
      w.packet = s.packet;
      w.next_seq = s.next_seq;
      w.ready_since = now;
      continue;
    }
    // Any blocked output port means the saturation machinery has fired (or
    // would, were anyone sampling): back-pressure stalls on this router
    // are accounted for and not "silent". Progress is legitimately
    // stalled; restart the clock so the watch re-arms only after the
    // congestion report clears.
    if (router_blocked(r, ports, now)) {
      w.ready_since = now;
      continue;
    }
    if (now - w.ready_since >= cfg_.deadlock_horizon) {
      std::ostringstream os;
      os << "router " << r << " port " << p << " vc " << vc
         << ": in-order flit of packet " << s.packet << " (seq "
         << s.next_seq << ") ready but unserved for " << (now - w.ready_since)
         << " cycles with no blocked-port report";
      starved_.push_back({(static_cast<std::uint64_t>(r) << 32) |
                              (static_cast<std::uint64_t>(p) << 16) |
                              static_cast<std::uint64_t>(vc),
                          s.packet, os.str()});
      w.ready_since = now;  // re-arm instead of re-reporting every cycle
    }
  }
}

void NetworkInvariantAuditor::rebuild_watched() {
  const auto vcs = static_cast<std::size_t>(net_.config().vcs_per_port);
  watched_.assign(hol_.size() / vcs, 0);
  for (std::size_t i = 0; i < hol_.size(); ++i) {
    if (hol_[i].armed()) watched_[i / vcs] |= 1u << (i % vcs);
  }
}

void NetworkInvariantAuditor::record(Cycle now, ViolationKind kind,
                                     std::uint64_t uid, PacketId packet,
                                     std::string detail) {
  if (already_reported(kind, uid)) return;
  if (violations_.size() >= kMaxViolations) return;
  Violation v;
  v.cycle = now;
  v.kind = kind;
  v.uid = uid;
  v.packet = packet;
  v.detail = std::move(detail);
  if (sink_ != nullptr) {
    std::vector<trace::Event> tail = sink_->snapshot();
    if (tail.size() > kTraceContext) {
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(kTraceContext));
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
