// Unit tests for the event-tracing subsystem (src/trace): record layout,
// ring-buffer semantics, category masking, exporter structure, and the
// instrumentation actually firing during attacked simulations.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/simulator.hpp"
#include "sweep/spec_json.hpp"
#include "trace/events.hpp"
#include "trace/export.hpp"
#include "trace/forensics.hpp"
#include "trace/sink.hpp"
#include "traffic/generator.hpp"

namespace {

using namespace htnoc;

trace::Event event_at(Cycle cycle) {
  return trace::make_event(trace::EventType::kLinkTraversal, cycle,
                           trace::Scope::kLink, 0, 0);
}

/// A single dest-0 TASP on the column-0 feeder, kill switch at `enable_at`.
sim::SimConfig attacked_config(sim::MitigationMode mode, Cycle enable_at) {
  sim::SimConfig sc;
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = enable_at;
  sc.attacks.push_back(a);
  sc.mode = mode;
  return sc;
}

struct RunOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t injections = 0;
  trace::TraceLog log;
};

RunOutcome run_attacked(sim::SimConfig sc, Cycle cycles) {
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params params;
  params.seed = 7;
  traffic::TrafficGenerator gen(net, model, params, disp);
  for (Cycle i = 0; i < cycles; ++i) {
    gen.step();
    simulator.step();
  }
  RunOutcome out;
  out.delivered = gen.stats().packets_delivered;
  out.injections = simulator.tasp(0).stats().injections;
  if (simulator.trace_sink() != nullptr) {
    out.log = simulator.trace_sink()->log();
  }
  return out;
}

bool has_event(const trace::TraceLog& log, trace::EventType t) {
  for (const trace::Event& e : log.events) {
    if (e.type == t) return true;
  }
  return false;
}

}  // namespace

TEST(TraceEvent, IsCompactPod) {
  EXPECT_EQ(sizeof(trace::Event), 40u);
  EXPECT_TRUE(std::is_trivially_copyable_v<trace::Event>);
}

TEST(TraceEvent, EveryTypeHasACategoryInsideTheMask) {
  for (int t = 0; t < static_cast<int>(trace::EventType::kCount_); ++t) {
    const auto type = static_cast<trace::EventType>(t);
    const std::uint32_t c = trace::raw(trace::category_of(type));
    EXPECT_NE(c, 0u) << "type " << t;
    EXPECT_EQ(c & (c - 1), 0u) << "type " << t << ": not a single bit";
    EXPECT_EQ(c & trace::raw(trace::Category::kAll), c) << "type " << t;
    EXPECT_STRNE(trace::to_string(type), "?");
  }
}

TEST(TraceEvent, ParseCategories) {
  EXPECT_EQ(trace::parse_categories("all"), trace::raw(trace::Category::kAll));
  EXPECT_EQ(trace::parse_categories("link,ecc"),
            trace::raw(trace::Category::kLink) |
                trace::raw(trace::Category::kEcc));
  EXPECT_EQ(trace::parse_categories("saturation"),
            trace::raw(trace::Category::kSaturation));
  EXPECT_THROW((void)trace::parse_categories("bogus"), std::invalid_argument);
}

TEST(TraceSink, RoundsCapacityUpToPowerOfTwo) {
  trace::TraceConfig cfg;
  cfg.capacity = 100;
  EXPECT_EQ(trace::TraceSink(cfg).capacity(), 128u);
  cfg.capacity = 1;
  EXPECT_EQ(trace::TraceSink(cfg).capacity(), 16u);
  cfg.capacity = 64;
  EXPECT_EQ(trace::TraceSink(cfg).capacity(), 64u);
}

TEST(TraceSink, RingKeepsTheNewestWindowInOrder) {
  trace::TraceConfig cfg;
  cfg.capacity = 16;
  trace::TraceSink sink(cfg);
  for (Cycle c = 0; c < 40; ++c) sink.record(event_at(c));
  EXPECT_EQ(sink.total_recorded(), 40u);
  const trace::TraceLog log = sink.log();
  ASSERT_EQ(log.events.size(), 16u);
  EXPECT_EQ(log.dropped(), 24u);
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].cycle, 24 + i);  // oldest survivor first
  }
}

TEST(TraceSink, CategoryMaskGatesWants) {
  trace::TraceConfig cfg;
  cfg.categories = trace::raw(trace::Category::kLink);
  trace::TraceSink sink(cfg);
  EXPECT_TRUE(sink.wants(trace::Category::kLink));
  EXPECT_FALSE(sink.wants(trace::Category::kEcc));
  EXPECT_FALSE(sink.wants(trace::Category::kSaturation));

  const trace::Tap tap(&sink);
  EXPECT_EQ(tap.on(trace::Category::kLink), trace::kCompiledIn);
  EXPECT_FALSE(tap.on(trace::Category::kEcc));
  EXPECT_FALSE(trace::Tap{}.on(trace::Category::kLink));
}

TEST(TraceExport, BinaryImageHasHeaderAndRawRecords) {
  trace::TraceConfig cfg;
  cfg.capacity = 16;
  trace::TraceSink sink(cfg);
  sink.set_topology(16, 4, 4, 4);
  for (Cycle c = 0; c < 5; ++c) sink.record(event_at(c));
  const std::string img = trace::serialize_binary(sink.log());
  ASSERT_EQ(img.size(), 48u + 5u * sizeof(trace::Event));
  EXPECT_EQ(img.substr(0, 8), "HTNOCTRC");
}

TEST(TraceSim, AttackedRunEmitsTheDosCascade) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "built with HTNOC_TRACE=0";
  sim::SimConfig sc = attacked_config(sim::MitigationMode::kNone, 100);
  sc.trace.enabled = true;
  sc.trace.capacity = std::size_t{1} << 16;
  const RunOutcome out = run_attacked(std::move(sc), 800);

  ASSERT_GT(out.injections, 0u);
  EXPECT_TRUE(has_event(out.log, trace::EventType::kLinkTraversal));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kTrojanTriggered));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kTrojanPayloadAdvance));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kEccUncorrectable));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kNackSent));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kRetransmission));

  const trace::ForensicReport rep = trace::analyze(out.log);
  ASSERT_NE(rep.first_trigger, trace::ForensicReport::kNever);
  ASSERT_NE(rep.first_uncorrectable, trace::ForensicReport::kNever);
  ASSERT_NE(rep.first_nack, trace::ForensicReport::kNever);
  EXPECT_LE(rep.first_trigger, rep.first_uncorrectable);
  EXPECT_LE(rep.first_uncorrectable, rep.first_nack);
  EXPECT_EQ(rep.trojan_injections, out.injections);
  EXPECT_GT(rep.nacks, 0u);

  // Exports render without blowing up and carry the expected structure.
  const std::string json = trace::to_chrome_json(out.log);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("trojan_triggered"), std::string::npos);
  std::ostringstream csv;
  trace::write_csv(csv, out.log);
  EXPECT_NE(csv.str().find("cycle,type,category"), std::string::npos);
  std::ostringstream timeline;
  trace::print_timeline(timeline, out.log, rep);
  EXPECT_NE(timeline.str().find("first trojan trigger"), std::string::npos);
}

TEST(TraceSim, TruncatedTimelineSaysItsFirstsAreTheWindowsFirsts) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "built with HTNOC_TRACE=0";
  const auto timeline_of = [](std::size_t capacity) {
    sim::SimConfig sc = attacked_config(sim::MitigationMode::kLOb, 100);
    sc.trace.enabled = true;
    sc.trace.capacity = capacity;
    const RunOutcome out = run_attacked(std::move(sc), 1500);
    std::ostringstream os;
    trace::print_timeline(os, out.log, trace::analyze(out.log));
    return std::make_pair(out.log, os.str());
  };

  const auto [small, truncated] = timeline_of(std::size_t{1} << 10);
  ASSERT_GT(small.dropped(), 0u) << "fixture fits the small ring";
  // The kill switch opened at cycle 100, before the kept window, so the
  // ladder's "first" trigger is a later one and must say so.
  ASSERT_GT(small.events.front().cycle, 100u);
  const std::string note =
      "(the ring dropped the oldest " + std::to_string(small.dropped()) +
      " events: each \"first ...\" milestone is the first inside the kept "
      "window, which starts at cycle " +
      std::to_string(small.events.front().cycle) + ")\n";
  const std::string ladder = "--- escalation ladder ---\n";
  EXPECT_NE(truncated.find(ladder + note), std::string::npos) << truncated;

  const auto [whole, complete] = timeline_of(std::size_t{1} << 20);
  ASSERT_EQ(whole.dropped(), 0u);
  EXPECT_EQ(complete.find("(the ring dropped"), std::string::npos);
}

TEST(TraceSim, LObModeEmitsDetectorAndObfuscationEvents) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "built with HTNOC_TRACE=0";
  sim::SimConfig sc = attacked_config(sim::MitigationMode::kLOb, 100);
  sc.trace.enabled = true;
  sc.trace.capacity = std::size_t{1} << 16;
  const RunOutcome out = run_attacked(std::move(sc), 800);

  ASSERT_GT(out.injections, 0u);
  EXPECT_TRUE(has_event(out.log, trace::EventType::kDetectorEscalation));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kBistDispatched));
  EXPECT_TRUE(has_event(out.log, trace::EventType::kLObMethodApplied));
  const trace::ForensicReport rep = trace::analyze(out.log);
  EXPECT_NE(rep.first_escalation, trace::ForensicReport::kNever);
  EXPECT_NE(rep.first_lob_applied, trace::ForensicReport::kNever);
}

TEST(TraceSim, LObMethodEventPrecedesItsOwnTraversal) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "built with HTNOC_TRACE=0";
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  // The `multi` preset's three dest-0 implants, kill switches at 100.
  sc.attacks = sweep::attack_scenario_preset("multi").attacks;
  for (sim::AttackSpec& a : sc.attacks) a.enable_killsw_at = 100;
  sc.trace.enabled = true;
  sc.trace.capacity = std::size_t{1} << 20;
  const RunOutcome out = run_attacked(std::move(sc), 3000);
  const trace::TraceLog& log = out.log;
  ASSERT_EQ(log.dropped(), 0u) << "fixture too big for the ring";

  // An output port chooses its obfuscation and then sends, before the next
  // port steps. So a method event that starts a transmission (every method
  // but kReorder, which only holds the flit) is followed by that flit's
  // traversal on the same router port. Only the trojans on that link, which
  // inspect the phit inside Link::send, may emit events in between.
  std::size_t checked = 0;
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const trace::Event& m = log.events[i];
    if (m.type != trace::EventType::kLObMethodApplied ||
        static_cast<ObfMethod>(m.arg) == ObfMethod::kReorder) {
      continue;
    }
    ++checked;
    std::size_t j = i + 1;
    while (j < log.events.size() &&
           trace::category_of(log.events[j].type) == trace::Category::kTrojan) {
      ++j;
    }
    const bool in_order =
        j < log.events.size() &&
        log.events[j].type == trace::EventType::kLinkTraversal &&
        log.events[j].packet == m.packet && log.events[j].seq == m.seq &&
        log.events[j].node == m.node && log.events[j].port == m.port;
    if (!in_order) ++out_of_order;
  }
  ASSERT_GT(checked, 0u) << "fixture never obfuscated a transmission";
  EXPECT_EQ(out_of_order, 0u) << "of " << checked << " method events";
}

TEST(TraceSim, TracingDoesNotChangeSimulationResults) {
  sim::SimConfig traced = attacked_config(sim::MitigationMode::kNone, 100);
  traced.trace.enabled = true;
  traced.trace.capacity = std::size_t{1} << 14;
  const RunOutcome with_trace = run_attacked(std::move(traced), 600);
  const RunOutcome without = run_attacked(
      attacked_config(sim::MitigationMode::kNone, 100), 600);
  EXPECT_EQ(with_trace.delivered, without.delivered);
  EXPECT_EQ(with_trace.injections, without.injections);
}

TEST(TraceSim, DisabledTraceOwnsNoSink) {
  sim::Simulator simulator(attacked_config(sim::MitigationMode::kNone, 100));
  EXPECT_EQ(simulator.trace_sink(), nullptr);
}

TEST(TraceSim, PurgeAccountingMatchesTrace) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "built with HTNOC_TRACE=0";
  sim::SimConfig sc = attacked_config(sim::MitigationMode::kReroute, 100);
  sc.reroute_latency = 50;
  sc.trace.enabled = true;
  sc.trace.categories = trace::raw(trace::Category::kPurge) |
                        trace::raw(trace::Category::kReroute);
  sc.trace.capacity = std::size_t{1} << 14;

  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params params;
  params.seed = 7;
  traffic::TrafficGenerator gen(net, model, params, disp);
  for (Cycle i = 0; i < 1500; ++i) {
    gen.step();
    simulator.step();
  }

  const auto& st = simulator.stats();
  ASSERT_GT(st.links_disabled, 0) << "fixture never classified the trojan";
  ASSERT_GT(st.packets_purged, 0u);
  // Satellite check: the flit counter is the real (deduplicated) flit
  // count, which for multi-flit packets must exceed the packet count.
  EXPECT_GE(st.flits_purged_total, st.packets_purged);
  EXPECT_EQ(st.flits_purged_total, net.purge_totals().flits);

  const trace::TraceLog log = simulator.trace_sink()->log();
  ASSERT_EQ(log.dropped(), 0u) << "fixture too big for the ring";
  const trace::ForensicReport rep = trace::analyze(log);
  EXPECT_EQ(rep.packets_purged, net.purge_totals().packets);
  EXPECT_EQ(rep.flits_purged, st.flits_purged_total);
  EXPECT_TRUE(has_event(log, trace::EventType::kLinkDisabled));
  EXPECT_TRUE(has_event(log, trace::EventType::kRoutingReconfigured));
}
