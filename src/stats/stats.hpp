// Measurement utilities: time-series sampling of the paper's utilization
// metrics (Figs. 11/12), traffic matrices (Fig. 1), latency statistics and
// a channel-level deadlock/saturation monitor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "noc/network.hpp"

namespace htnoc::stats {

/// Periodic sampler of Network::UtilizationSample.
class UtilizationProbe {
 public:
  explicit UtilizationProbe(Cycle period = 10) : period_(period) {
    HTNOC_EXPECT(period >= 1);
  }

  /// Call once per cycle; records every `period` cycles.
  void maybe_sample(const Network& net) {
    if (net.now() % period_ == 0) samples_.push_back(net.sample_utilization());
  }
  void sample_now(const Network& net) {
    samples_.push_back(net.sample_utilization());
  }

  [[nodiscard]] const std::vector<Network::UtilizationSample>& samples() const {
    return samples_;
  }
  void clear() { samples_.clear(); }

  /// Print a CSV table with cycles re-based to `origin` (Fig. 11's x-axis
  /// is "cycles after TASP enabled").
  void print_csv(std::ostream& os, Cycle origin = 0,
                 const std::string& label = "") const;

 private:
  Cycle period_;
  std::vector<Network::UtilizationSample> samples_;
};

/// Router-to-router packet counts plus per-link flit counts (Fig. 1).
class TrafficMatrix {
 public:
  explicit TrafficMatrix(const MeshGeometry& geom)
      : geom_(geom),
        counts_(static_cast<std::size_t>(geom.num_routers()),
                std::vector<std::uint64_t>(
                    static_cast<std::size_t>(geom.num_routers()), 0)) {}

  void record(const PacketInfo& info) {
    ++counts_[info.src_router][info.dest_router];
  }

  [[nodiscard]] std::uint64_t count(RouterId src, RouterId dest) const {
    return counts_[src][dest];
  }
  [[nodiscard]] std::uint64_t row_total(RouterId src) const {
    std::uint64_t n = 0;
    for (const auto v : counts_[src]) n += v;
    return n;
  }
  [[nodiscard]] std::uint64_t col_total(RouterId dest) const {
    std::uint64_t n = 0;
    for (const auto& row : counts_) n += row[dest];
    return n;
  }
  [[nodiscard]] std::uint64_t grand_total() const {
    std::uint64_t n = 0;
    for (RouterId r = 0; r < geom_.num_routers(); ++r) n += row_total(r);
    return n;
  }

  /// Fig. 1(a): source/destination matrix.
  void print_matrix(std::ostream& os) const;
  /// Fig. 1(b): per-router source totals laid out geographically.
  void print_source_heatmap(std::ostream& os) const;

 private:
  MeshGeometry geom_;
  std::vector<std::vector<std::uint64_t>> counts_;
};

/// Fig. 1(c): share of total traffic crossing each mesh link, measured from
/// the links' phit counters.
struct LinkLoad {
  LinkRef link;
  std::uint64_t phits = 0;
  double share = 0.0;  ///< Fraction of all link traversals.
};
[[nodiscard]] std::vector<LinkLoad> measure_link_loads(Network& net);
void print_link_loads(std::ostream& os, const std::vector<LinkLoad>& loads,
                      const MeshGeometry& geom);

/// Full post-run report: per-router pipeline activity (RC/VA/SA grants and
/// stall attribution), link traffic/fault/retransmission totals, NI
/// injection/ejection counts. The go-to diagnostic when a run behaves
/// unexpectedly.
void print_network_report(std::ostream& os, Network& net);

/// Streaming latency statistics with a coarse histogram.
class LatencyStats {
 public:
  void record(Cycle latency) {
    ++count_;
    sum_ += latency;
    max_ = std::max(max_, latency);
    min_ = count_ == 1 ? latency : std::min(min_, latency);
    std::size_t bucket = 0;
    Cycle bound = 8;
    while (bucket + 1 < kBuckets && latency >= bound) {
      bound *= 2;
      ++bucket;
    }
    ++hist_[bucket];
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] Cycle max() const noexcept { return max_; }
  [[nodiscard]] Cycle min() const noexcept { return min_; }

  /// Estimated latency at quantile `q` in [0, 1], linearly interpolated
  /// within the power-of-two histogram bucket holding that rank (the open
  /// last bucket is clamped to the observed max). Exact for bucket
  /// boundaries; within a bucket the error is bounded by the bucket width.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p95() const { return percentile(0.95); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  void print(std::ostream& os, const std::string& label) const;

 private:
  static constexpr std::size_t kBuckets = 10;  // <8, <16, ..., <2048, rest
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  Cycle max_ = 0;
  Cycle min_ = 0;
  std::uint64_t hist_[kBuckets] = {};
};

}  // namespace htnoc::stats
