#include "ecc/secded.hpp"

namespace htnoc::ecc {

Secded::Secded() {
  // Data-bit placement: ascending codeword positions, skipping the check
  // positions. Identical to SecdedReference by construction.
  unsigned data_bit = 0;
  for (unsigned pos = 1; pos < kCodeBits && data_bit < kDataBits; ++pos) {
    if (is_check_position(pos)) continue;
    data_position_[data_bit] = static_cast<std::uint8_t>(pos);
    ++data_bit;
  }
  HTNOC_ENSURE(data_bit == kDataBits);

  // Derive the scatter/gather segments: maximal runs of data bits whose
  // codeword positions below 64 are consecutive (constant shift).
  unsigned nseg = 0;
  unsigned i = 0;
  while (i < kDataBits && data_position_[i] < 64) {
    const unsigned shift = data_position_[i] - i;
    const unsigned start = i;
    while (i < kDataBits && data_position_[i] < 64 &&
           data_position_[i] - i == shift) {
      ++i;
    }
    HTNOC_ENSURE(nseg < kLoSegments);
    const unsigned width = i - start;
    segments_[nseg].shift = shift;
    segments_[nseg].data_mask = ((std::uint64_t{1} << width) - 1) << start;
    ++nseg;
  }
  HTNOC_ENSURE(nseg == kLoSegments);
  // The remaining data bits (57..63) occupy hi positions 65..71, one run.
  HTNOC_ENSURE(i == kHiDataShift);
  for (unsigned j = i; j < kDataBits; ++j) {
    HTNOC_ENSURE(data_position_[j] == j + kCheckBits);
  }

  // Byte-sliced syndrome tables: entry [b][v] = XOR of codeword positions
  // {8b + k : bit k set in v}. Position 0 (the overall parity bit) XORs in
  // zero, so it never perturbs the syndrome.
  for (unsigned b = 0; b < 9; ++b) {
    for (unsigned v = 0; v < 256; ++v) {
      unsigned x = 0;
      for (unsigned k = 0; k < 8; ++k) {
        const unsigned pos = 8 * b + k;
        if (((v >> k) & 1) != 0 && pos < kCodeBits) x ^= pos;
      }
      syndrome_lut_[b][v] = static_cast<std::uint8_t>(x);
    }
  }
}

Codeword72 Secded::encode(std::uint64_t data) const noexcept {
  // Scatter the data word into its codeword positions (check bits zero).
  std::uint64_t lo = 0;
  for (const Segment& s : segments_) lo |= (data & s.data_mask) << s.shift;
  auto hi = static_cast<std::uint8_t>((data >> kHiDataShift) << 1);

  // With the check positions still zero, the syndrome of the scattered word
  // is the XOR of the positions of all set data bits — exactly the value
  // each Hamming parity bit at position 2^k must take (bit k of it).
  const unsigned syn = syndrome_of(lo, hi);
  lo |= static_cast<std::uint64_t>(syn & 1) << 1;
  lo |= static_cast<std::uint64_t>((syn >> 1) & 1) << 2;
  lo |= static_cast<std::uint64_t>((syn >> 2) & 1) << 4;
  lo |= static_cast<std::uint64_t>((syn >> 3) & 1) << 8;
  lo |= static_cast<std::uint64_t>((syn >> 4) & 1) << 16;
  lo |= static_cast<std::uint64_t>((syn >> 5) & 1) << 32;
  hi |= static_cast<std::uint8_t>((syn >> 6) & 1);

  // Overall parity at position 0 makes total codeword parity even.
  lo |= static_cast<std::uint64_t>(
      (std::popcount(lo) + std::popcount(static_cast<unsigned>(hi))) & 1);

  Codeword72 cw;
  cw.lo = lo;
  cw.hi = hi;
  return cw;
}

std::uint64_t Secded::extract_data(const Codeword72& cw) const noexcept {
  std::uint64_t data = 0;
  for (const Segment& s : segments_) data |= (cw.lo >> s.shift) & s.data_mask;
  return data | (static_cast<std::uint64_t>(cw.hi >> 1) << kHiDataShift);
}

DecodeResult Secded::decode(Codeword72 received) const noexcept {
  const unsigned syndrome = syndrome_of(received.lo, received.hi);
  const bool parity_bad =
      ((std::popcount(received.lo) +
        std::popcount(static_cast<unsigned>(received.hi))) &
       1) != 0;
  DecodeResult r;
  r.syndrome = static_cast<std::uint8_t>(syndrome);
  r.overall_parity_bad = parity_bad;

  if (!parity_bad) {
    if (syndrome == 0) {
      r.status = DecodeStatus::kClean;
      r.data = extract_data(received);
      return r;
    }
    // Even number of errors (>=2) with non-zero syndrome: detected, not
    // correctable — the TASP-exploited outcome. Data stays zero.
    r.status = DecodeStatus::kDetectedDouble;
    return r;
  }
  // Odd number of errors; for a single error the syndrome is its position
  // (zero when the overall parity bit itself flipped — data is intact
  // either way, and flipping position 0 does not touch the data bits).
  if (syndrome == 0) {
    r.status = DecodeStatus::kCorrectedSingle;
    r.corrected_position = 0;
    r.data = extract_data(received);
    return r;
  }
  if (syndrome < kCodeBits) {
    received.flip(syndrome);
    r.status = DecodeStatus::kCorrectedSingle;
    r.corrected_position = syndrome;
    r.data = extract_data(received);
    return r;
  }
  // Odd-weight multi-bit error pointing outside the codeword. Data stays
  // zero: it is unrecoverable and no caller may consume it.
  r.status = DecodeStatus::kDetectedMultiple;
  return r;
}

const Secded& secded() {
  static const Secded instance;
  return instance;
}

}  // namespace htnoc::ecc
