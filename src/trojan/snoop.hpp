// A snooping (data-theft) link trojan in the mold the paper's related work
// analyzes (Fort-NoCs / DAC'14 [19]): instead of corrupting traffic, it
// covertly copies the wire images of matching flits for later
// exfiltration. It shares TASP's target comparator and kill switch but has
// no payload — electrically it is even quieter than TASP.
//
// The paper's e2e-obfuscation discussion is really about this attacker:
// scrambled payloads defeat a mem/data-keyed snoop, while routing fields
// (src/dest/vc) can never be hidden from an in-network observer.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "noc/fault_model.hpp"
#include "trojan/tasp.hpp"

namespace htnoc::trojan {

class SnoopingTrojan final : public LinkFaultInjector {
 public:
  struct Stats {
    std::uint64_t flits_inspected = 0;
    std::uint64_t flits_captured = 0;
  };

  /// `exfil_capacity`: how many captured words the trojan can stage before
  /// old captures are overwritten (its covert buffer is tiny by design).
  explicit SnoopingTrojan(TaspParams params, std::size_t exfil_capacity = 16)
      : comparator_(std::move(params)),
        codec_(comparator_.params().ecc),
        capacity_(exfil_capacity) {
    HTNOC_EXPECT(exfil_capacity >= 1);
  }

  void set_kill_switch(bool on) noexcept { comparator_.set_kill_switch(on); }
  [[nodiscard]] bool kill_switch() const noexcept {
    return comparator_.kill_switch();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// The staged stolen words, oldest first.
  [[nodiscard]] const std::deque<std::uint64_t>& captured() const noexcept {
    return captured_;
  }

  // --- LinkFaultInjector ---
  void on_traverse(Cycle now, LinkPhit& phit) override {
    (void)now;
    if (!comparator_.kill_switch()) return;
    ++stats_.flits_inspected;
    const std::uint64_t w = codec_.extract_data(phit.codeword);
    if (!comparator_.matches(w)) return;
    ++stats_.flits_captured;
    captured_.push_back(w);
    if (captured_.size() > capacity_) captured_.pop_front();
    // Purely passive: the codeword is never touched, so ECC sees nothing.
  }
  void probe(Codeword72&) const override {}
  [[nodiscard]] std::string name() const override { return "snoop"; }

 private:
  // Reuse TASP's comparator/kill-switch machinery without its payload; the
  // Tasp member is never given fault opportunities (we don't call its
  // on_traverse).
  Tasp comparator_;
  ecc::CodecDispatch codec_;  ///< The link code the comparator taps through.
  std::size_t capacity_;
  std::deque<std::uint64_t> captured_;
  Stats stats_;
};

}  // namespace htnoc::trojan
