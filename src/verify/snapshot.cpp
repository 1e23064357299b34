// The snapshot codec. Every stateful simulation class befriends
// verify::StateCodec, and all serialization logic lives here in one
// translation unit so the blob layout is a single readable document.
//
// Save, restore and state_digest share one field-by-field walk: the
// template parameter is a Saver (wrapping serial::Writer), a Loader
// (wrapping serial::Reader) or a Hasher (folding each field into a
// digest), so the three can never fall out of sync. Sizes fixed by
// construction (VC counts, port counts, router counts) are written and
// verified rather than resized; cycle-boundary staging buffers must be
// empty and are checked, not serialized.
#include "verify/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "mitigation/lob.hpp"
#include "mitigation/threat_detector.hpp"
#include "noc/arbiter.hpp"
#include "noc/fault_model.hpp"
#include "noc/flit.hpp"
#include "noc/input_unit.hpp"
#include "noc/link.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "noc/output_unit.hpp"
#include "noc/router.hpp"
#include "sim/simulator.hpp"
#include "trace/events.hpp"
#include "trace/sink.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "trojan/tasp.hpp"
#include "verify/auditor.hpp"

namespace htnoc::verify {

namespace {

/// Archive wrapper for saving: every accessor writes the value it is given.
struct Saver {
  static constexpr bool kLoading = false;
  serial::Writer w;

  void u8(std::uint8_t& v) { w.u8(v); }
  void u16(std::uint16_t& v) { w.u16(v); }
  void u32(std::uint32_t& v) { w.u32(v); }
  void u64(std::uint64_t& v) { w.u64(v); }
  void i32(std::int32_t& v) { w.i32(v); }
  void i64(std::int64_t& v) { w.i64(v); }
  void b(bool& v) { w.b(v); }
  void f64(double& v) { w.f64(v); }
  void str(std::string& v) { w.str(v); }
};

/// Archive wrapper for hashing: every accessor folds the value it is given
/// into a running digest, one fold per field and no byte buffer. For a
/// fixed value each fold is a bijection of the running hash (rotate, xor,
/// multiply by an odd constant), so two walks that differ in any single
/// field always end in different digests.
struct Hasher {
  static constexpr bool kLoading = false;
  std::uint64_t h = 0;

  void fold(std::uint64_t v) {
    h = (std::rotl(h, 5) ^ v) * 0x517CC1B727220A95ull;
  }
  void u8(std::uint8_t& v) { fold(v); }
  void u16(std::uint16_t& v) { fold(v); }
  void u32(std::uint32_t& v) { fold(v); }
  void u64(std::uint64_t& v) { fold(v); }
  void i32(std::int32_t& v) { fold(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t& v) { fold(static_cast<std::uint64_t>(v)); }
  void b(bool& v) { fold(v ? 1 : 0); }
  void f64(double& v) { fold(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string& v) {
    fold(v.size());
    for (const char c : v) fold(static_cast<unsigned char>(c));
  }
};

/// Archive wrapper for loading: every accessor overwrites the value.
struct Loader {
  static constexpr bool kLoading = true;
  serial::Reader r;

  Loader(const std::uint8_t* data, std::size_t size) : r(data, size) {}

  void u8(std::uint8_t& v) { v = r.u8(); }
  void u16(std::uint16_t& v) { v = r.u16(); }
  void u32(std::uint32_t& v) { v = r.u32(); }
  void u64(std::uint64_t& v) { v = r.u64(); }
  void i32(std::int32_t& v) { v = r.i32(); }
  void i64(std::int64_t& v) { v = r.i64(); }
  void b(bool& v) { v = r.b(); }
  void f64(double& v) { v = r.f64(); }
  void str(std::string& v) { v = r.str(); }
};

template <class Ar>
void io_int(Ar& ar, int& v) {
  std::int32_t t = static_cast<std::int32_t>(v);
  ar.i32(t);
  if constexpr (Ar::kLoading) v = t;
}

template <class Ar, class E>
void io_enum8(Ar& ar, E& e) {
  std::uint8_t v = static_cast<std::uint8_t>(e);
  ar.u8(v);
  if constexpr (Ar::kLoading) e = static_cast<E>(v);
}

/// A container size fixed by construction: written on save, verified on
/// load (the target was built from a substrate-compatible config, so a
/// mismatch means the blob lies about the fingerprint).
template <class Ar>
void fixed_size(Ar& ar, std::size_t actual, const char* what) {
  std::uint64_t n = actual;
  ar.u64(n);
  if (n != actual) {
    throw SnapshotError(std::string("snapshot size mismatch in ") + what);
  }
}

/// Resizable sequence (vector/deque) of default-constructible elements.
template <class Ar, class C, class Fn>
void io_seq(Ar& ar, C& c, Fn f) {
  std::uint64_t n = c.size();
  ar.u64(n);
  if constexpr (Ar::kLoading) {
    c.clear();
    c.resize(static_cast<std::size_t>(n));
  }
  for (auto& e : c) f(ar, e);
}

/// std::vector<bool> (proxy references), size fixed by construction.
template <class Ar>
void io_bool_vec(Ar& ar, std::vector<bool>& v, const char* what) {
  fixed_size(ar, v.size(), what);
  for (std::size_t i = 0; i < v.size(); ++i) {
    bool bit = v[i];
    ar.b(bit);
    if constexpr (Ar::kLoading) v[i] = bit;
  }
}

template <class Ar, class M, class KFn, class VFn>
void io_map(Ar& ar, M& m, KFn kf, VFn vf) {
  std::uint64_t n = m.size();
  ar.u64(n);
  if constexpr (Ar::kLoading) {
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename M::key_type k{};
      kf(ar, k);
      typename M::mapped_type v{};
      vf(ar, v);
      m.emplace(std::move(k), std::move(v));
    }
  } else {
    for (auto& [k, v] : m) {
      auto key = k;
      kf(ar, key);
      vf(ar, v);
    }
  }
}

template <class Ar, class S, class Fn>
void io_set(Ar& ar, S& s, Fn f) {
  std::uint64_t n = s.size();
  ar.u64(n);
  if constexpr (Ar::kLoading) {
    s.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename S::value_type v{};
      f(ar, v);
      s.insert(std::move(v));
    }
  } else {
    for (const auto& e : s) {
      auto v = e;
      f(ar, v);
    }
  }
}

constexpr char kMagic[8] = {'H', 'T', 'N', 'O', 'C', 'S', 'N', 'P'};
// magic + version + fingerprint + payload size + payload digest (FNV-1a).
constexpr std::size_t kEnvelopeSize = 8 + 4 + 8 + 8 + 8;

}  // namespace

/// The befriended codec. One static template member per class; every member
/// works for Saver, Loader and Hasher alike, so layout symmetry (and the
/// digest's coverage) is structural.
struct StateCodec {
  // --- plain value types ---

  template <class Ar>
  static void io(Ar& ar, Flit& f) {
    ar.u64(f.packet);
    io_int(ar, f.seq);
    io_enum8(ar, f.type);
    ar.u16(f.src_core);
    ar.u16(f.dest_core);
    ar.u16(f.src_router);
    ar.u16(f.dest_router);
    ar.u32(f.mem_addr);
    io_enum8(ar, f.pclass);
    io_enum8(ar, f.domain);
    ar.u8(f.thread);
    io_int(ar, f.length);
    ar.u64(f.inject_cycle);
    ar.u8(f.vc);
    ar.b(f.route_phase_down);
    ar.u64(f.wire);
  }

  template <class Ar>
  static void io(Ar& ar, PacketInfo& p) {
    ar.u64(p.id);
    ar.u16(p.src_core);
    ar.u16(p.dest_core);
    ar.u16(p.src_router);
    ar.u16(p.dest_router);
    ar.u32(p.mem_addr);
    io_enum8(ar, p.pclass);
    io_enum8(ar, p.domain);
    ar.u8(p.thread);
    io_int(ar, p.length);
    ar.u64(p.inject_cycle);
  }

  template <class Ar>
  static void io(Ar& ar, Codeword72& c) {
    ar.u64(c.lo);
    ar.u8(c.hi);
  }

  template <class Ar>
  static void io(Ar& ar, ObfuscationTag& t) {
    io_enum8(ar, t.method);
    io_enum8(ar, t.granularity);
    ar.u64(t.partner_packet);
    io_int(ar, t.partner_seq);
  }

  template <class Ar>
  static void io(Ar& ar, LinkPhit& p) {
    io(ar, p.flit);
    io(ar, p.codeword);
    io(ar, p.obf);
    ar.u64(p.sent_cycle);
    io_int(ar, p.attempt);
  }

  template <class Ar>
  static void io(Ar& ar, trace::Event& e) {
    ar.u64(e.cycle);
    ar.u64(e.packet);
    ar.u64(e.arg);
    ar.u32(e.seq);
    ar.u16(e.node);
    io_enum8(ar, e.type);
    io_enum8(ar, e.scope);
    std::uint8_t port = static_cast<std::uint8_t>(e.port);
    ar.u8(port);
    if constexpr (Ar::kLoading) e.port = static_cast<std::int8_t>(port);
    ar.u8(e.vc);
    ar.u8(e.aux);
    ar.u8(e.flags);
    ar.u32(e.reserved);
  }

  template <class Ar>
  static void io_rng(Ar& ar, Rng& rng) {
    std::array<std::uint64_t, 4> s = rng.state();
    for (auto& word : s) ar.u64(word);
    if constexpr (Ar::kLoading) rng.set_state(s);
  }

  // --- links and their fault injectors ---

  // `hop` names the link in load errors; the name is built only there.
  template <class Ar>
  static void io_injector(Ar& ar, LinkFaultInjector& inj,
                          const Network::Hop& hop) {
    std::string name = inj.name();
    ar.str(name);
    if constexpr (Ar::kLoading) {
      if (name != inj.name()) {
        throw SnapshotError("fault injector mismatch on link '" + hop.name() +
                            "': blob has '" + name + "', target has '" +
                            inj.name() + "'");
      }
    }
    if (auto* t = dynamic_cast<trojan::Tasp*>(&inj)) {
      ar.b(t->killsw_);
      io_enum8(ar, t->state_);
      io_int(ar, t->payload_state_);
      ar.u64(t->last_injection_);
      ar.b(t->injected_once_);
      ar.u64(t->stats_.flits_inspected);
      ar.u64(t->stats_.target_sightings);
      ar.u64(t->stats_.injections);
    } else if (auto* tr = dynamic_cast<TransientFaultInjector*>(&inj)) {
      io_rng(ar, tr->rng_);
      ar.u64(tr->faults_injected_);
    } else if (auto* perm = dynamic_cast<PermanentFaultInjector*>(&inj)) {
      // stuck_ is construction-time configuration.
      ar.u64(perm->faults_injected_);
    } else {
      throw SnapshotError("unserializable fault injector '" + name +
                          "' on link '" + hop.name() + "'");
    }
  }

  template <class Ar>
  static void io_link(Ar& ar, Network::Hop& hop) {
    Link& l = hop.link;
    ar.b(l.disabled_);
    ar.i64(l.last_send_cycle_);
    io_seq(ar, l.in_flight_, [](Ar& a, auto& f) {
      a.u64(f.arrive);
      StateCodec::io(a, f.phit);
    });
    io_seq(ar, l.credits_, [](Ar& a, auto& c) {
      a.u64(c.arrive);
      a.u8(c.msg.vc);
    });
    io_seq(ar, l.acks_, [](Ar& a, auto& p) {
      a.u64(p.arrive);
      a.u64(p.msg.packet);
      io_int(a, p.msg.seq);
      io_int(a, p.msg.attempt);
      a.b(p.msg.ok);
      a.b(p.msg.escalate_obfuscation);
      a.b(p.msg.bist_requested);
    });
    ar.u64(l.stats_.phits_sent);
    ar.u64(l.stats_.phits_with_injected_faults);
    ar.u64(l.stats_.credits_sent);
    ar.u64(l.stats_.acks_sent);
    ar.u64(l.stats_.nacks_sent);
    // Injectors are matched as a prefix of the target's attach order: a
    // blob saved with fewer injectors (the clean warmup fabric) leaves the
    // target's extra injectors (the scenario's trojans/faults) fresh.
    std::uint64_t n = l.injectors_.size();
    ar.u64(n);
    if constexpr (Ar::kLoading) {
      if (n > l.injectors_.size()) {
        throw SnapshotError("snapshot has more fault injectors than link '" +
                            hop.name() + "'");
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      io_injector(ar, *l.injectors_[static_cast<std::size_t>(i)], hop);
    }
    if constexpr (Ar::kLoading) l.recount();
  }

  /// `count` hops of the table from `first`, `stride` apart, each behind a
  /// presence flag.
  template <class Ar>
  static void io_hops(Ar& ar, std::vector<Network::Hop>& hops,
                      std::size_t first, std::size_t count, std::size_t stride,
                      const char* what) {
    fixed_size(ar, count, what);
    for (std::size_t k = 0; k < count; ++k) {
      Network::Hop& hop = hops[first + k * stride];
      bool present = hop.wired();
      const bool actual = present;
      ar.b(present);
      if constexpr (Ar::kLoading) {
        if (present != actual) {
          throw SnapshotError(std::string("link presence mismatch in ") + what);
        }
      }
      if (actual) io_link(ar, hop);
    }
  }

  // --- router units ---

  template <class Ar>
  static void io_input(Ar& ar, InputUnit& in) {
    if (!in.staged_arrivals_.empty()) {
      throw SnapshotError(
          "input unit has staged arrivals; snapshots only at cycle "
          "boundaries");
    }
    // Streams serialize their arena-resident flits as count + (flit,
    // arrival) pairs in list (seq-ascending) order — byte-identical to the
    // pre-pool per-stream deque layout. On load the arena is rebuilt from
    // scratch: reset once per input unit, then flits re-allocated in walk
    // order (ascending slots, LIFO free list), so a restored run's handle
    // assignment is a pure function of the restored logical state.
    if constexpr (Ar::kLoading) in.arena_.reset();
    fixed_size(ar, in.vcs_.size(), "input VC count");
    for (auto& vb : in.vcs_) {
      io_seq(ar, vb.streams, [&in](Ar& a, auto& s) {
        a.u64(s.packet);
        std::uint64_t nflits = static_cast<std::uint64_t>(s.flit_count);
        a.u64(nflits);
        if constexpr (Ar::kLoading) {
          pool::FlitHandle prev{};
          s.head = s.tail = pool::FlitHandle{};
          s.flit_count = 0;
          s.front_seq = -1;
          for (std::uint64_t i = 0; i < nflits; ++i) {
            Flit f;
            StateCodec::io(a, f);
            std::uint64_t arrival = 0;
            a.u64(arrival);
            const pool::FlitHandle h = in.arena_.alloc(f, arrival);
            if (prev.null()) {
              s.head = h;
              s.front_seq = f.seq;
            } else {
              in.arena_.set_next(prev, h);
            }
            s.tail = h;
            prev = h;
            ++s.flit_count;
          }
        } else {
          for (pool::FlitHandle h = s.head; !h.null(); h = in.arena_.next(h)) {
            StateCodec::io(a, in.arena_.flit(h));
            std::uint64_t arrival = in.arena_.arrival(h);
            a.u64(arrival);
          }
        }
        io_int(a, s.next_seq);
        io_enum8(a, s.state);
        io_int(a, s.out_port);
        a.b(s.phase_down_next);
        io_int(a, s.out_vc);
        a.u64(s.va_eligible);
        a.u64(s.sa_eligible);
      });
      io_int(ar, vb.occupancy);
    }
    io_seq(ar, in.station_, [](Ar& a, auto& e) {
      StateCodec::io(a, e.phit);
      a.u64(e.decoded_word);
      a.u64(e.arrived);
    });
    if constexpr (Ar::kLoading) in.rebuild_derived();
    io_seq(ar, in.wire_cache_, [](Ar& a, auto& cw) {
      a.u64(cw.packet);
      io_int(a, cw.seq);
      a.u64(cw.wire);
    });
    ar.u64(in.stats_.flits_received);
    ar.u64(in.stats_.nacks_sent);
    ar.u64(in.stats_.corrected_singles);
    ar.u64(in.stats_.silent_corruptions);
    ar.u64(in.stats_.scramble_stalls);
  }

  template <class Ar>
  static void io_output(Ar& ar, OutputUnit& out) {
    if (!out.staged_credits_.empty() || !out.staged_acks_.empty()) {
      throw SnapshotError(
          "output unit has staged control messages; snapshots only at cycle "
          "boundaries");
    }
    io_bool_vec(ar, out.vc_allocated_, "output VC allocation");
    fixed_size(ar, out.credits_.size(), "output credit counters");
    for (auto& c : out.credits_) io_int(ar, c);
    fixed_size(ar, out.last_credit_gain_.size(), "credit-gain timestamps");
    for (auto& c : out.last_credit_gain_) ar.u64(c);
    // The SoA slot lanes serialize interleaved per slot, byte-identical to
    // the old AoS Slot layout. Meta fields mirrored from the flit
    // (packet/seq/vc/domain) are reconstructed on load, not stored twice.
    std::uint64_t nslots = out.meta_.size();
    ar.u64(nslots);
    if constexpr (Ar::kLoading) {
      out.meta_.assign(static_cast<std::size_t>(nslots),
                       OutputUnit::SlotMeta{});
      out.payload_.assign(static_cast<std::size_t>(nslots),
                          OutputUnit::SlotPayload{});
    }
    for (std::size_t i = 0; i < nslots; ++i) {
      auto& m = out.meta_[i];
      auto& p = out.payload_[i];
      StateCodec::io(ar, p.flit);
      io_enum8(ar, m.state);
      ar.u64(m.eligible);
      ar.u64(m.entered);
      io_int(ar, m.attempt);
      ar.b(m.escalate);
      ar.b(m.forced_plain);
      StateCodec::io(ar, p.last_tag);
      if constexpr (Ar::kLoading) {
        m.packet = p.flit.packet;
        m.seq = p.flit.seq;
        m.vc = p.flit.vc;
        m.domain = p.flit.domain;
      }
    }
    ar.u64(out.stats_.flits_accepted);
    ar.u64(out.stats_.transmissions);
    ar.u64(out.stats_.retransmissions);
    ar.u64(out.stats_.acks);
    ar.u64(out.stats_.nacks);
    ar.u64(out.stats_.obfuscated_sends);
    ar.u64(out.stats_.reorder_holds);
    ar.u64(out.stats_.last_successful_lt);
  }

  template <class Ar>
  static void io_arbiter(Ar& ar, RoundRobinArbiter& arb) {
    // The version-1 layout puts a kind byte before the rotation pointer.
    // Round-robin is the only kind (0); a blob naming another is rejected.
    std::uint8_t kind = 0;
    ar.u8(kind);
    if constexpr (Ar::kLoading) {
      if (kind != 0) throw SnapshotError("arbiter kind mismatch");
    }
    io_int(ar, arb.next_);
    if constexpr (Ar::kLoading) {
      // The mask search indexes the request words by the pointer.
      if (arb.next_ < 0 || arb.next_ >= arb.num_inputs_) {
        throw SnapshotError("arbiter pointer out of range");
      }
    }
  }

  template <class Ar>
  static void io_router(Ar& ar, Router& r) {
    ar.u64(r.stats_.flits_switched);
    ar.u64(r.stats_.rc_computations);
    ar.u64(r.stats_.rc_stalls_unroutable);
    ar.u64(r.stats_.va_grants);
    ar.u64(r.stats_.va_stalls_no_free_vc);
    ar.u64(r.stats_.sa_requests);
    ar.u64(r.stats_.sa_stalls_no_slot);
    ar.u64(r.stats_.sa_stalls_no_credit);
    fixed_size(ar, r.va_arbiters_.size(), "VA arbiters");
    for (auto& a : r.va_arbiters_) io_arbiter(ar, a);
    fixed_size(ar, r.sa_input_arbiters_.size(), "SA input arbiters");
    for (auto& a : r.sa_input_arbiters_) io_arbiter(ar, a);
    fixed_size(ar, r.sa_output_arbiters_.size(), "SA output arbiters");
    for (auto& a : r.sa_output_arbiters_) io_arbiter(ar, a);
    fixed_size(ar, r.inputs_.size(), "router input ports");
    for (auto& in : r.inputs_) io_input(ar, *in);
    fixed_size(ar, r.outputs_.size(), "router output ports");
    for (auto& out : r.outputs_) io_output(ar, *out);
    if constexpr (Ar::kLoading) r.sync_slot_outputs();
  }

  template <class Ar>
  static void io_ni(Ar& ar, NetworkInterface& ni) {
    if (!ni.pending_ejections_.empty()) {
      throw SnapshotError(
          "NI has staged ejections; snapshots only at cycle boundaries");
    }
    for (auto& s : ni.streams_) {
      io_seq(ar, s.queue, [](Ar& a, Flit& f) { StateCodec::io(a, f); });
      io_int(ar, s.out_vc);
      a_u64(ar, s.packet);
    }
    ar.b(ni.saturated_);
    ar.u64(ni.stats_.packets_injected);
    ar.u64(ni.stats_.packets_delivered);
    ar.u64(ni.stats_.flits_delivered);
    ar.u64(ni.stats_.inject_rejects);
    io_output(ar, ni.out_);
    io_input(ar, ni.in_);
  }

  // PacketId is std::uint64_t; this exists only to keep io_ni readable.
  template <class Ar>
  static void a_u64(Ar& ar, std::uint64_t& v) {
    ar.u64(v);
  }

  // --- the network ---

  static void reinstall_routing(Network& net) {
    // The routing tables are a pure function of topology + disabled links,
    // so restore re-runs the original installer instead of serializing
    // them. A fresh Network already carries the default routing.
    switch (net.routing_mode_) {
      case Network::RoutingMode::kWestFirst:
        net.use_west_first_routing();
        break;
      case Network::RoutingMode::kUpDown:
        net.use_updown_routing();
        break;
      case Network::RoutingMode::kDefault:
        break;
    }
  }

  template <class Ar>
  static void io_network(Ar& ar, Network& net) {
    ar.u64(net.now_);
    ar.u64(net.next_packet_id_);
    io_set(ar, net.disabled_, [](Ar& a, LinkRef& l) {
      a.u16(l.from);
      io_enum8(a, l.dir);
    });
    ar.u64(net.purge_totals_.packets);
    ar.u64(net.purge_totals_.flits);
    ar.u64(net.step_stats_.router_steps);
    ar.u64(net.step_stats_.router_skips);
    ar.u64(net.step_stats_.ni_steps);
    ar.u64(net.step_stats_.ni_skips);
    io_seq(ar, net.router_blocked_, [](Ar& a, char& c) {
      std::uint8_t v = static_cast<std::uint8_t>(c);
      a.u8(v);
      if constexpr (Ar::kLoading) c = static_cast<char>(v);
    });
    io_enum8(ar, net.routing_mode_);
    // Reinstall before the routers load: up*/down* reconstruction sends
    // kWaitVA streams back through RC, which must not clobber the restored
    // stream states.
    if constexpr (Ar::kLoading) reinstall_routing(net);
    fixed_size(ar, net.routers_.size(), "router count");
    for (auto& r : net.routers_) io_router(ar, *r);
    // The mesh slots, then every injection hop, then every ejection hop.
    const std::size_t mesh = net.routers_.size() * 4;
    const std::size_t cores = net.nis_.size();
    io_hops(ar, net.hops_, 0, mesh, 1, "mesh links");
    io_hops(ar, net.hops_, mesh, cores, 2, "injection links");
    io_hops(ar, net.hops_, mesh + 1, cores, 2, "ejection links");
    fixed_size(ar, net.nis_.size(), "NI count");
    for (auto& ni : net.nis_) io_ni(ar, *ni);
  }

  // --- mitigation components ---

  template <class Ar>
  static void io_port_state(Ar& ar,
                            mitigation::RouterThreatDetector::PortState& ps) {
    // ps.link deliberately not serialized: wiring from construction.
    io_seq(ar, ps.history, [](Ar& a, auto& h) {
      a.u64(h.uid);
      io_int(a, h.fault_count);
      a.u8(h.last_syndrome);
      a.b(h.syndrome_moved);
      a.u64(h.last_seen);
    });
    io_int(ar, ps.repeat_fault_flits);
    io_int(ar, ps.max_moving_fault_count);
    io_map(
        ar, ps.syndrome_counts, [](Ar& a, std::uint8_t& k) { a.u8(k); },
        [](Ar& a, int& v) { io_int(a, v); });
    io_int(ar, ps.max_syndrome_repeat);
    ar.b(ps.bist_pending);
    ar.u64(ps.bist_done_at);
    ar.b(ps.bist_ran);
    ar.b(ps.bist_report.permanent_fault_found);
    io_seq(ar, ps.bist_report.stuck_wires, [](Ar& a, unsigned& wire) {
      std::uint32_t v = wire;
      a.u32(v);
      if constexpr (Ar::kLoading) wire = v;
    });
    io_enum8(ar, ps.cls);
    ar.u64(ps.stats.uncorrectable);
    ar.u64(ps.stats.corrected);
    ar.u64(ps.stats.clean);
    ar.u64(ps.stats.escalations_advised);
    ar.u64(ps.stats.bist_scans);
  }

  template <class Ar>
  static void io_detector(Ar& ar, mitigation::RouterThreatDetector& det) {
    std::uint64_t n = det.ports_.size();
    ar.u64(n);
    if constexpr (Ar::kLoading) {
      // Merge into existing entries so set_port_link wiring survives.
      for (std::uint64_t i = 0; i < n; ++i) {
        int port = 0;
        io_int(ar, port);
        io_port_state(ar, det.ports_[port]);
      }
    } else {
      for (auto& [port, ps] : det.ports_) {
        int p = port;
        io_int(ar, p);
        io_port_state(ar, ps);
      }
    }
  }

  template <class Ar>
  static void io_lob(Ar& ar, mitigation::LObController& lob) {
    io_map(
        ar, lob.flit_states_, [](Ar& a, std::uint64_t& k) { a.u64(k); },
        [](Ar& a, auto& fs) {
          io_int(a, fs.seq_index);
          a.b(fs.active);
        });
    io_map(
        ar, lob.success_log_, [](Ar& a, std::uint32_t& k) { a.u32(k); },
        [](Ar& a, int& v) { io_int(a, v); });
    ar.u64(lob.stats_.obfuscated_attempts);
    ar.u64(lob.stats_.successes);
    ar.u64(lob.stats_.method_exhaustions);
    ar.u64(lob.stats_.log_hits);
  }

  // --- verification / observability ---

  /// The auditor's ledger as a uid-keyed map: the entry count, then each
  /// entry's uid and fields in uid order, so the bytes do not depend on
  /// the ledger's internal order. Loading rebuilds the uid index and, like
  /// a map, keeps the first of any repeated uid.
  template <class Ar>
  static void io_ledger(Ar& ar, NetworkInvariantAuditor::Ledger& ledger) {
    using Entry = NetworkInvariantAuditor::LedgerEntry;
    const auto io_entry = [&ar](Entry& e) {
      ar.u64(e.uid);
      ar.u64(e.packet);
      io_enum8(ar, e.state);
      ar.u64(e.since);
    };
    std::uint64_t n = ledger.size();
    ar.u64(n);
    if constexpr (Ar::kLoading) {
      ledger = {};
      for (std::uint64_t i = 0; i < n; ++i) {
        Entry e;
        io_entry(e);
        (void)ledger.try_emplace(e);
      }
    } else {
      std::vector<Entry> sorted = ledger.entries();
      std::sort(sorted.begin(), sorted.end(),
                [](const Entry& a, const Entry& b) { return a.uid < b.uid; });
      for (Entry& e : sorted) io_entry(e);
    }
  }

  template <class Ar>
  static void io_auditor(Ar& ar, NetworkInvariantAuditor& aud) {
    io_ledger(ar, aud.ledger_);
    io_set(ar, aud.purged_packets_, [](Ar& a, PacketId& p) { a.u64(p); });
    io_seq(ar, aud.violations_, [](Ar& a, Violation& v) {
      a.u64(v.cycle);
      io_enum8(a, v.kind);
      a.u64(v.uid);
      a.u64(v.packet);
      a.str(v.detail);
      io_seq(a, v.context,
             [](Ar& aa, trace::Event& e) { StateCodec::io(aa, e); });
    });
    io_set(ar, aud.reported_, [](Ar& a, std::pair<std::uint64_t, int>& p) {
      a.u64(p.first);
      io_int(a, p.second);
    });
    io_seq(ar, aud.hol_, [](Ar& a, auto& h) {
      a.u64(h.packet);
      io_int(a, h.next_seq);
      a.u64(h.ready_since);
    });
    if constexpr (Ar::kLoading) aud.rebuild_watched();
    ar.u64(aud.audits_run_);
    ar.u64(aud.flits_tracked_);
  }

  template <class Ar>
  static void io_trace(Ar& ar, trace::TraceSink& sink) {
    std::uint64_t cap = sink.ring_.size();
    std::uint32_t cats = sink.cfg_.categories;
    const std::uint64_t actual_cap = cap;
    const std::uint32_t actual_cats = cats;
    ar.u64(cap);
    ar.u32(cats);
    if constexpr (Ar::kLoading) {
      if (cap != actual_cap || cats != actual_cats) {
        throw SnapshotError("trace sink configuration mismatch");
      }
    }
    ar.u64(sink.head_);
    // Only the surviving window [head - n, head) is observable (snapshot()
    // never reaches older slots), so that window is all that round-trips.
    const std::uint64_t n = sink.head_ < cap ? sink.head_ : cap;
    for (std::uint64_t i = sink.head_ - n; i < sink.head_; ++i) {
      io(ar, sink.ring_[static_cast<std::size_t>(i) & sink.mask_]);
    }
  }

  // --- traffic generators ---

  template <class Ar>
  static void io_model(Ar& ar, traffic::AppTrafficModel& m) {
    traffic::AppProfile& p = m.profile_;
    ar.str(p.name);
    ar.f64(p.injection_rate);
    io_seq(ar, p.hotspots, [](Ar& a, std::pair<RouterId, double>& h) {
      a.u16(h.first);
      a.f64(h.second);
    });
    ar.f64(p.background_weight);
    ar.f64(p.distance_decay);
    ar.f64(p.reply_fraction);
    io_int(ar, p.min_len);
    io_int(ar, p.max_len);
    ar.u32(p.mem_base);
    ar.u32(p.mem_span);
    // The sampling tables are a pure function of the profile + geometry.
    if constexpr (Ar::kLoading) m.rebuild_tables();
  }

  template <class Ar>
  static void io_generator(Ar& ar, traffic::TrafficGenerator& g) {
    io_rng(ar, g.rng_);
    fixed_size(ar, g.backlog_.size(), "generator backlog lanes");
    for (auto& q : g.backlog_) {
      io_seq(ar, q, [](Ar& a, PacketInfo& p) { StateCodec::io(a, p); });
    }
    io_map(
        ar, g.mine_, [](Ar& a, PacketId& k) { a.u64(k); },
        [](Ar& a, PacketInfo& v) { StateCodec::io(a, v); });
    ar.u64(g.outstanding_);
    ar.u64(g.stats_.requests_generated);
    ar.u64(g.stats_.replies_generated);
    ar.u64(g.stats_.packets_injected);
    ar.u64(g.stats_.packets_delivered);
    ar.u64(g.stats_.flits_injected);
    ar.u64(g.stats_.backlog_peak);
    ar.u64(g.stats_.latency_sum);
    ar.u64(g.stats_.migrations);
    ar.u64(g.stats_.latency_max);
    io_model(ar, g.model_);
  }

  // --- the whole simulator ---

  template <class Ar>
  static void io_all(Ar& ar, sim::Simulator& s,
                     const std::vector<traffic::TrafficGenerator*>& gens) {
    io_network(ar, *s.net_);

    // Trojan state rides in the link injector sections; detectors and L-Ob
    // controllers are fork-friendly: an empty blob section (a warmup saved
    // with mitigation off) leaves the target's mitigation state fresh.
    std::uint64_t nd = s.detectors_.size();
    ar.u64(nd);
    if (nd != 0) {
      if (nd != s.detectors_.size()) {
        throw SnapshotError("threat detector count mismatch");
      }
      for (auto& d : s.detectors_) io_detector(ar, *d);
    }

    std::uint64_t nl = s.lobs_.size();
    ar.u64(nl);
    if (nl != 0) {
      if (nl != s.lobs_.size()) {
        throw SnapshotError("L-Ob controller count mismatch");
      }
      for (auto& [key, lob] : s.lobs_) {
        std::uint16_t router = key.first;
        int port = key.second;
        ar.u16(router);
        io_int(ar, port);
        if constexpr (Ar::kLoading) {
          if (router != key.first || port != key.second) {
            throw SnapshotError("L-Ob controller key mismatch");
          }
        }
        io_lob(ar, *lob);
      }
    }

    io_seq(ar, s.pending_reroutes_, [](Ar& a, auto& pr) {
      a.u16(pr.receiver);
      io_int(a, pr.in_port);
      a.u64(pr.ready_at);
    });
    io_int(ar, s.stats_.links_disabled);
    ar.u64(s.stats_.packets_purged);
    ar.u64(s.stats_.flits_purged_total);
    io_int(ar, s.stats_.routing_reconfigurations);
    io_int(ar, s.stats_.reroutes_refused_disconnect);

    // Auditor and trace presence are strict: restoring an audited run into
    // an unaudited simulator (or vice versa) would desynchronize the ledger
    // against the resident census on the very next audit.
    bool has_auditor = s.auditor_ != nullptr;
    const bool target_auditor = has_auditor;
    ar.b(has_auditor);
    if constexpr (Ar::kLoading) {
      if (has_auditor != target_auditor) {
        throw SnapshotError("auditor presence mismatch");
      }
    }
    if (target_auditor) io_auditor(ar, *s.auditor_);

    bool has_trace = s.trace_sink_ != nullptr;
    const bool target_trace = has_trace;
    ar.b(has_trace);
    if constexpr (Ar::kLoading) {
      if (has_trace != target_trace) {
        throw SnapshotError("trace sink presence mismatch");
      }
    }
    if (target_trace) io_trace(ar, *s.trace_sink_);

    std::uint64_t ng = gens.size();
    ar.u64(ng);
    if constexpr (Ar::kLoading) {
      if (ng != gens.size()) {
        throw SnapshotError("traffic generator count mismatch: blob has " +
                            std::to_string(ng) + ", caller passed " +
                            std::to_string(gens.size()));
      }
    }
    for (auto* g : gens) io_generator(ar, *g);
  }
};

std::uint64_t substrate_fingerprint(const NocConfig& cfg) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.topology));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.mesh_width));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.mesh_height));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.concentration));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.vcs_per_port));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.buffer_depth));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.retrans_scheme));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.retrans_depth));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.retrans_per_vc_depth));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.ecc_scheme));
  // The five stage latencies (BW/RC, VA, SA, ST, LT), one cycle each since
  // they stopped being settings; still folded so blob envelopes keep their
  // bytes.
  for (int stage = 0; stage < 5; ++stage) h = fnv1a_u64(h, 1);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(cfg.injection_queue_depth));
  h = fnv1a_u64(h, cfg.tdm_enabled ? 1 : 0);
  return h;
}

namespace {

/// Run a non-loading archive over the whole simulator. The codec walk is
/// direction-agnostic and never mutates unless loading; the const_casts
/// keep one template serving both directions.
template <class Ar>
void walk(Ar& ar, const sim::Simulator& sim,
          const std::vector<const traffic::TrafficGenerator*>& generators) {
  static_assert(!Ar::kLoading);
  std::vector<traffic::TrafficGenerator*> gens;
  gens.reserve(generators.size());
  for (const auto* g : generators) {
    gens.push_back(const_cast<traffic::TrafficGenerator*>(g));
  }
  StateCodec::io_all(ar, const_cast<sim::Simulator&>(sim), gens);
}

}  // namespace

std::uint64_t state_digest(
    const sim::Simulator& sim,
    const std::vector<const traffic::TrafficGenerator*>& generators) {
  Hasher ar;
  walk(ar, sim, generators);
  return ar.h;
}

std::vector<std::uint8_t> save_snapshot(
    const sim::Simulator& sim,
    const std::vector<const traffic::TrafficGenerator*>& generators) {
  Saver ar;
  walk(ar, sim, generators);
  const std::vector<std::uint8_t> payload = ar.w.take();

  serial::Writer env;
  for (char c : kMagic) env.u8(static_cast<std::uint8_t>(c));
  env.u32(kSnapshotVersion);
  env.u64(substrate_fingerprint(sim.config().noc));
  env.u64(payload.size());
  env.u64(fnv1a(payload.data(), payload.size()));
  std::vector<std::uint8_t> blob = env.take();
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

void load_snapshot(sim::Simulator& sim,
                   const std::vector<traffic::TrafficGenerator*>& generators,
                   const std::vector<std::uint8_t>& blob) {
  if (blob.size() < kEnvelopeSize) {
    throw SnapshotError("snapshot blob truncated: no envelope");
  }
  serial::Reader env(blob.data(), kEnvelopeSize);
  for (char c : kMagic) {
    if (env.u8() != static_cast<std::uint8_t>(c)) {
      throw SnapshotError("bad snapshot magic");
    }
  }
  const std::uint32_t version = env.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version));
  }
  const std::uint64_t fp = env.u64();
  const std::uint64_t want = substrate_fingerprint(sim.config().noc);
  if (fp != want) {
    throw SnapshotError(
        "substrate fingerprint mismatch: the blob was saved from a "
        "structurally different NocConfig");
  }
  const std::uint64_t payload_size = env.u64();
  const std::uint64_t digest = env.u64();
  if (blob.size() - kEnvelopeSize != payload_size) {
    throw SnapshotError("snapshot blob truncated: payload size mismatch");
  }
  const std::uint8_t* payload = blob.data() + kEnvelopeSize;
  if (fnv1a(payload, static_cast<std::size_t>(payload_size)) != digest) {
    throw SnapshotError("snapshot integrity digest mismatch");
  }
  // Structural parsing only starts on a digest-verified payload, so any
  // Truncated below means a layout bug, not user-corrupted input. On throw
  // the target simulator is partially written and must be discarded.
  try {
    Loader ar(payload, static_cast<std::size_t>(payload_size));
    StateCodec::io_all(ar, sim, generators);
    if (!ar.r.done()) {
      throw SnapshotError("snapshot payload has trailing bytes");
    }
  } catch (const serial::Truncated&) {
    throw SnapshotError("snapshot payload truncated mid-record");
  }
}

}  // namespace htnoc::verify
