// The link-codec abstraction: every link guards its 64 data bits with one
// of three error-control schemes. The paper's platform is SECDED and its
// trojan is designed against it ("we assume the attacker has knowledge of
// the ECC between links"); the parity and raw variants quantify how much
// that knowledge matters:
//
//   scheme  | 1-bit fault        | 2-bit fault            | 3-bit fault
//   --------+--------------------+------------------------+----------------
//   secded  | corrected inline   | detected -> retransmit | mis-corrected/detected
//   parity  | detected -> retx   | SILENT corruption      | detected -> retx
//   none    | silent corruption  | silent corruption      | silent corruption
//
// A TASP tuned for SECDED (2-bit payload) therefore corrupts parity links
// silently instead of DoSing them, while a single-bit payload — harmless
// against SECDED — already mounts the full DoS against parity.
//
// `CodecDispatch` is the one entry point: an enum tag resolved once at
// construction (input and output ports bind it to their NocConfig's
// scheme, each decoding and encoding its own phits; on-link
// inspectors such as the trojan's comparator and the snooper to the
// scheme they were designed against); encode/decode inline with no
// virtual call per phit.
#pragma once

#include "common/config.hpp"
#include "ecc/secded.hpp"

namespace htnoc::ecc {

// --- scheme implementations ---

/// Single even-parity bit at wire 64; data on wires 0..63.
[[nodiscard]] inline Codeword72 parity_encode(std::uint64_t data) noexcept {
  Codeword72 cw;
  cw.lo = data;
  cw.set(64, parity64(data));
  return cw;
}

[[nodiscard]] inline DecodeResult parity_decode(const Codeword72& received) noexcept {
  DecodeResult r;
  const bool bad = parity64(received.lo) != received.get(64);
  r.overall_parity_bad = bad;
  // Odd-weight errors are detected but never correctable; even-weight
  // errors (the SECDED-tuned trojan's 2-bit payload!) pass silently. On
  // detection the data is unrecoverable and stays zero.
  r.status = bad ? DecodeStatus::kDetectedMultiple : DecodeStatus::kClean;
  if (!bad) r.data = received.lo;
  return r;
}

/// Raw wires: no detection at all.
[[nodiscard]] inline Codeword72 none_encode(std::uint64_t data) noexcept {
  Codeword72 cw;
  cw.lo = data;
  return cw;
}

[[nodiscard]] inline DecodeResult none_decode(const Codeword72& received) noexcept {
  DecodeResult r;
  r.data = received.lo;
  r.status = DecodeStatus::kClean;
  return r;
}

/// Wires actually carrying signal under a scheme (faults on unused wires
/// are invisible).
[[nodiscard]] constexpr unsigned used_wires_for(EccScheme scheme) noexcept {
  switch (scheme) {
    case EccScheme::kParity: return 65;
    case EccScheme::kNone: return 64;
    case EccScheme::kSecded: break;
  }
  return 72;
}

/// Non-virtual link codec, resolved once at construction. The common
/// (secded) case inlines straight into the table-driven `Secded` codec; the
/// enum switch on a fixed member predicts perfectly.
class CodecDispatch {
 public:
  explicit CodecDispatch(EccScheme scheme) noexcept
      : scheme_(scheme), secded_(&secded()) {}

  [[nodiscard]] Codeword72 encode(std::uint64_t data) const noexcept {
    switch (scheme_) {
      case EccScheme::kParity: return parity_encode(data);
      case EccScheme::kNone: return none_encode(data);
      case EccScheme::kSecded: break;
    }
    return secded_->encode(data);
  }

  [[nodiscard]] DecodeResult decode(const Codeword72& received) const noexcept {
    switch (scheme_) {
      case EccScheme::kParity: return parity_decode(received);
      case EccScheme::kNone: return none_decode(received);
      case EccScheme::kSecded: break;
    }
    return secded_->decode(received);
  }

  /// Read the data bits without checking (what an on-link observer taps).
  [[nodiscard]] std::uint64_t extract_data(const Codeword72& cw) const noexcept {
    switch (scheme_) {
      case EccScheme::kParity:
      case EccScheme::kNone:
        return cw.lo;
      case EccScheme::kSecded: break;
    }
    return secded_->extract_data(cw);
  }

  [[nodiscard]] unsigned used_wires() const noexcept {
    return used_wires_for(scheme_);
  }
  [[nodiscard]] EccScheme scheme() const noexcept { return scheme_; }

 private:
  EccScheme scheme_;
  const Secded* secded_;  ///< Cached shared instance (never null).
};

}  // namespace htnoc::ecc
