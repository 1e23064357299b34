// Hamming(72,64) SECDED — the switch-to-switch error-control code the paper
// assumes on every link: single-error correction, double-error detection.
//
// Codeword layout (72 bits): positions 1..71 form an extended Hamming code
// with parity bits at the power-of-two positions {1,2,4,8,16,32,64} and the
// 64 data bits filling the remaining positions in ascending order. Position
// 0 holds the overall parity over positions 1..71.
//
// Decode outcome table (S = Hamming syndrome, P = overall parity check):
//   S == 0, P ok     -> clean
//   S != 0, P bad    -> single error at position S, corrected
//   S == 0, P bad    -> error in the overall parity bit itself, corrected
//   S != 0, P ok     -> double error: DETECTED, NOT correctable -> retransmit
//
// The TASP trojan exploits exactly the last row: it always flips two bits so
// the receiver detects but cannot correct, forcing retransmission forever.
//
// This is the fast, table-driven implementation running on every phit of
// every hop: syndrome computation is byte-sliced through nine 256-entry
// XOR-of-positions tables, data moves between word and codeword through a
// handful of precomputed shift/mask segments, and the overall parity check
// is a single popcount. The original bit-serial implementation survives as
// `SecdedReference` (secded_reference.hpp) and serves as the oracle in the
// exhaustive equivalence tests.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bits.hpp"

namespace htnoc::ecc {

/// Result category of a SECDED decode.
enum class DecodeStatus : std::uint8_t {
  kClean,             ///< No error detected.
  kCorrectedSingle,   ///< One bit flipped; corrected in place.
  kDetectedDouble,    ///< Two-bit (even) error; uncorrectable -> retransmit.
  kDetectedMultiple,  ///< >2-bit odd-weight error decoded to an invalid
                      ///< position; uncorrectable -> retransmit.
};

[[nodiscard]] constexpr bool needs_retransmission(DecodeStatus s) noexcept {
  return s == DecodeStatus::kDetectedDouble ||
         s == DecodeStatus::kDetectedMultiple;
}

/// Full decode report, including the raw syndrome the threat detector logs.
struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  /// Recovered data word. Zeroed on uncorrectable outcomes (kDetectedDouble
  /// and kDetectedMultiple) so no caller consumes garbage silently — check
  /// has_valid_data() before reading.
  std::uint64_t data = 0;
  std::uint8_t syndrome = 0;     ///< 7-bit Hamming syndrome (position of error).
  bool overall_parity_bad = false;
  /// Corrected codeword position, when status == kCorrectedSingle.
  std::optional<unsigned> corrected_position;

  /// True when `data` holds the (possibly corrected) transmitted word.
  [[nodiscard]] constexpr bool has_valid_data() const noexcept {
    return !needs_retransmission(status);
  }
};

/// Stateless encoder/decoder for the (72,64) SECDED code.
///
/// All lookup tables are built once at construction; encode/decode are pure
/// and lock-free, so one instance can be shared by every router.
class Secded {
 public:
  static constexpr unsigned kDataBits = 64;
  static constexpr unsigned kCodeBits = 72;
  static constexpr unsigned kCheckBits = 8;  // 7 Hamming + 1 overall parity

  Secded();

  /// Encode a 64-bit data word into a 72-bit codeword.
  [[nodiscard]] Codeword72 encode(std::uint64_t data) const noexcept;

  /// Decode (and correct when possible) a received codeword.
  [[nodiscard]] DecodeResult decode(Codeword72 received) const noexcept;

  /// Extract the data bits of a codeword without any checking. Used by
  /// on-link inspectors (the trojan) which read wires directly.
  [[nodiscard]] std::uint64_t extract_data(const Codeword72& cw) const noexcept;

  /// Codeword position occupied by data bit i (i in [0,64)).
  [[nodiscard]] unsigned position_of_data_bit(unsigned i) const {
    HTNOC_EXPECT(i < kDataBits);
    return data_position_[i];
  }

  /// True when the codeword position holds a check (parity) bit.
  [[nodiscard]] static constexpr bool is_check_position(unsigned pos) noexcept {
    return pos == 0 || (pos & (pos - 1)) == 0;  // 0 and powers of two
  }

 private:
  /// One maximal run of data bits occupying consecutive `lo` codeword
  /// positions: data bits [first, first+width) live at lo bits
  /// [first+shift, first+shift+width). The layout yields five such runs
  /// (between the power-of-two parity positions below 64); the single run
  /// above position 64 (data bits 57..63 at hi bits 1..7) is hard-wired in
  /// encode/extract_data and verified at construction.
  struct Segment {
    std::uint64_t data_mask = 0;  ///< Mask over the data word.
    unsigned shift = 0;           ///< Left shift from data bit to lo bit.
  };
  static constexpr unsigned kLoSegments = 5;
  /// Data bits carried in `hi` (positions 65..71): the top seven.
  static constexpr unsigned kHiDataShift = 57;

  /// Byte-sliced syndrome tables: syndrome_lut_[b][v] is the XOR of the
  /// codeword positions {8b + i : bit i set in v}. XORing nine lookups
  /// (eight lo bytes + the hi byte) yields the Hamming syndrome; position 0
  /// contributes nothing by construction (0 ^ x == x).
  [[nodiscard]] unsigned syndrome_of(std::uint64_t lo,
                                     std::uint8_t hi) const noexcept {
    unsigned s = 0;
    for (unsigned b = 0; b < 8; ++b) {
      s ^= syndrome_lut_[b][(lo >> (8 * b)) & 0xFF];
    }
    return s ^ syndrome_lut_[8][hi];
  }

  // data_position_[i]: codeword position of data bit i.
  std::array<std::uint8_t, kDataBits> data_position_{};
  std::array<Segment, kLoSegments> segments_{};
  std::array<std::array<std::uint8_t, 256>, 9> syndrome_lut_{};
};

/// Shared immutable instance (construction is cheap but there is no reason
/// to rebuild the tables per router).
const Secded& secded();

}  // namespace htnoc::ecc
