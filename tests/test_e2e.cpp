#include "mitigation/e2e.hpp"

#include <gtest/gtest.h>

#include "trojan/tasp.hpp"

namespace htnoc::mitigation {
namespace {

TEST(E2e, MemScrambleIsInvolution) {
  const E2eObfuscator e2e(0x5ec3e7);
  const std::uint32_t mem = 0x12345678;
  const std::uint32_t s = e2e.scramble_mem(7, 9, mem);
  EXPECT_NE(s, mem);
  EXPECT_EQ(e2e.scramble_mem(7, 9, s), mem);
}

TEST(E2e, KeysDifferPerFlow) {
  const E2eObfuscator e2e(1);
  EXPECT_NE(e2e.key(0, 1), e2e.key(1, 0));
  EXPECT_NE(e2e.key(0, 1), e2e.key(0, 2));
  EXPECT_EQ(e2e.key(0, 1), e2e.key(0, 1));
}

TEST(E2e, DefeatsMemTargetedTrojan) {
  // E2e scrambling hides the memory address from a mem-tuned comparator.
  const E2eObfuscator e2e(0xFEED);
  trojan::TaspParams p;
  p.kind = trojan::TargetKind::kMem;
  p.target_mem = 0x40001000;
  const trojan::Tasp t(p);

  wire::HeaderFields h;
  h.mem_addr = e2e.scramble_mem(2, 8, 0x40001000);
  h.type = FlitType::kHead;
  EXPECT_FALSE(t.matches(wire::pack_header(h)));
}

TEST(E2e, CannotHideRoutingFieldsFromDestTargetedTrojan) {
  // The Fig. 11(a) failure: routers need src/dest/vc in the clear, so an
  // in-network DPI trojan keyed on dest still triggers under e2e
  // obfuscation.
  const E2eObfuscator e2e(0xFEED);
  trojan::TaspParams p;
  p.kind = trojan::TargetKind::kDest;
  p.target_dest = 0;
  const trojan::Tasp t(p);

  wire::HeaderFields h;
  h.dest = 0;  // must stay plain for routing
  h.mem_addr = e2e.scramble_mem(2, 0, 0x40001000);
  h.type = FlitType::kHead;
  EXPECT_TRUE(t.matches(wire::pack_header(h)));
}

TEST(E2e, DifferentSecretsGiveDifferentKeys) {
  const E2eObfuscator a(1);
  const E2eObfuscator b(2);
  EXPECT_NE(a.key(3, 4), b.key(3, 4));
}

}  // namespace
}  // namespace htnoc::mitigation
