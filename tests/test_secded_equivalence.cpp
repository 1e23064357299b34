// Exhaustive equivalence between the fast table-driven `Secded` codec and
// the bit-serial `SecdedReference` oracle it replaced on the hot path:
// identical codewords from encode, identical full DecodeResult (status,
// data, syndrome, overall-parity flag, corrected position) over all 72
// single-bit and all 2,556 two-bit error patterns with randomized data,
// plus randomized higher-weight patterns. Also checks that the parity
// scheme zeroes uncorrectable data.
#include "ecc/secded_reference.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ecc/codec.hpp"

namespace htnoc::ecc {
namespace {

void expect_same_decode(const DecodeResult& fast, const DecodeResult& ref,
                        const std::string& what) {
  EXPECT_EQ(fast.status, ref.status) << what;
  EXPECT_EQ(fast.data, ref.data) << what;
  EXPECT_EQ(fast.syndrome, ref.syndrome) << what;
  EXPECT_EQ(fast.overall_parity_bad, ref.overall_parity_bad) << what;
  EXPECT_EQ(fast.corrected_position, ref.corrected_position) << what;
}

class SecdedEquivalence : public ::testing::Test {
 protected:
  const Secded& fast = secded();
  const SecdedReference& ref = secded_reference();
};

TEST_F(SecdedEquivalence, DataBitLayoutIdentical) {
  for (unsigned i = 0; i < Secded::kDataBits; ++i) {
    EXPECT_EQ(fast.position_of_data_bit(i), ref.position_of_data_bit(i)) << i;
  }
}

TEST_F(SecdedEquivalence, EncodeIdentical) {
  Rng rng(2016);
  for (const std::uint64_t d : {std::uint64_t{0}, ~std::uint64_t{0}}) {
    EXPECT_TRUE(fast.encode(d) == ref.encode(d)) << d;
  }
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t d = rng.next_u64();
    const Codeword72 f = fast.encode(d);
    const Codeword72 r = ref.encode(d);
    ASSERT_TRUE(f == r) << "data=" << d;
    EXPECT_EQ(fast.extract_data(f), d);
    EXPECT_EQ(ref.extract_data(r), d);
  }
}

TEST_F(SecdedEquivalence, CleanDecodeIdentical) {
  Rng rng(4);
  for (int i = 0; i < 1024; ++i) {
    const std::uint64_t d = rng.next_u64();
    expect_same_decode(fast.decode(fast.encode(d)), ref.decode(ref.encode(d)),
                       "clean");
  }
}

// All 72 single-bit error patterns, each over several random data words.
TEST_F(SecdedEquivalence, AllSingleBitErrorsIdentical) {
  Rng rng(71);
  for (unsigned pos = 0; pos < Secded::kCodeBits; ++pos) {
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t d = rng.next_u64();
      Codeword72 cw = fast.encode(d);
      cw.flip(pos);
      const DecodeResult f = fast.decode(cw);
      expect_same_decode(f, ref.decode(cw), "pos=" + std::to_string(pos));
      EXPECT_EQ(f.status, DecodeStatus::kCorrectedSingle);
      EXPECT_EQ(f.data, d);
      EXPECT_TRUE(f.has_valid_data());
    }
  }
}

// All C(72,2) = 2,556 two-bit error patterns, each over random data.
TEST_F(SecdedEquivalence, AllDoubleBitErrorsIdentical) {
  Rng rng(2556);
  int patterns = 0;
  for (unsigned a = 0; a < Secded::kCodeBits; ++a) {
    for (unsigned b = a + 1; b < Secded::kCodeBits; ++b) {
      const std::uint64_t d = rng.next_u64();
      Codeword72 cw = fast.encode(d);
      cw.flip(a);
      cw.flip(b);
      const DecodeResult f = fast.decode(cw);
      expect_same_decode(
          f, ref.decode(cw),
          "a=" + std::to_string(a) + " b=" + std::to_string(b));
      EXPECT_EQ(f.status, DecodeStatus::kDetectedDouble);
      EXPECT_EQ(f.data, 0u) << "uncorrectable data must be zeroed";
      EXPECT_FALSE(f.has_valid_data());
      ++patterns;
    }
  }
  EXPECT_EQ(patterns, 2556);
}

// Higher-weight random patterns: outcomes may be miscorrections or
// detected-multiple, but both implementations must agree bit-for-bit.
TEST_F(SecdedEquivalence, RandomMultiBitErrorsIdentical) {
  Rng rng(0xBAD);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t d = rng.next_u64();
    Codeword72 cw = fast.encode(d);
    const int nflips = 3 + static_cast<int>(rng.next_below(5));  // 3..7
    for (int k = 0; k < nflips; ++k) {
      cw.flip(static_cast<unsigned>(rng.next_below(Secded::kCodeBits)));
    }
    const DecodeResult f = fast.decode(cw);
    expect_same_decode(f, ref.decode(cw), "iter=" + std::to_string(i));
    if (!f.has_valid_data()) {
      EXPECT_EQ(f.data, 0u);
    }
  }
}

// Fully random 72-bit words (not necessarily near any codeword).
TEST_F(SecdedEquivalence, RandomWordsIdentical) {
  Rng rng(777);
  for (int i = 0; i < 20000; ++i) {
    Codeword72 cw;
    cw.lo = rng.next_u64();
    cw.hi = static_cast<std::uint8_t>(rng.next_u64());
    expect_same_decode(fast.decode(cw), ref.decode(cw),
                       "iter=" + std::to_string(i));
  }
}

// A parity link fed an odd-weight error reports kDetectedMultiple and must
// not leak the corrupted word through DecodeResult.data.
TEST(ParityDecode, UncorrectableDataZeroed) {
  const std::uint64_t d = 0x0123456789ABCDEF;
  Codeword72 cw = parity_encode(d);
  cw.flip(3);
  const DecodeResult r = parity_decode(cw);
  EXPECT_EQ(r.status, DecodeStatus::kDetectedMultiple);
  EXPECT_FALSE(r.has_valid_data());
  EXPECT_EQ(r.data, 0u);
}

}  // namespace
}  // namespace htnoc::ecc
