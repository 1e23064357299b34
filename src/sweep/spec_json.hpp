// JSON codec for SweepSpec — the single source of truth for experiment
// specs shared by `sweep_cli --spec` and the tests.
//
// Contract:
//   * parsing is strict — unknown keys, wrong types and out-of-range
//     values raise SpecError naming the offending field;
//   * serialization is canonical — every supported field is emitted, in a
//     fixed order, so `to_json(from_json(doc))` is a fixed point and two
//     equal specs serialize to identical bytes;
//   * uint64-valued fields (seeds) are serialized as strings ("0x5eed")
//     because JSON numbers lose exactness above 2^53; parsing accepts a
//     number or a decimal/hex string everywhere an integer is expected.
//
// docs/REPRODUCING.md ("Spec files") documents the schema.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "sweep/spec.hpp"

namespace htnoc::sweep {

/// Spec validation/parse failure; the message names the JSON path.
class SpecError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- accessors shared by the sweep and campaign spec codecs ---

/// Throw SpecError("<path>: <msg>").
[[noreturn]] void bad(const std::string& path, const std::string& msg);
/// `v` as a uint64 (a number or a decimal/hex string); a json::TypeError is
/// re-thrown as SpecError with the field path.
[[nodiscard]] std::uint64_t get_u64(const json::Value& v,
                                    const std::string& path);
/// get_u64, rejecting a value outside [lo, hi].
[[nodiscard]] std::uint64_t get_u64_range(const json::Value& v,
                                          const std::string& path,
                                          std::uint64_t lo, std::uint64_t hi);
/// "0x…" lower-case hex: how uint64 fields (seeds) serialize.
[[nodiscard]] std::string hex_string(std::uint64_t v);

/// Parse a full sweep spec from its JSON document. Strict (see above);
/// fields left out of the document keep SweepSpec's defaults.
[[nodiscard]] SweepSpec sweep_spec_from_json(const json::Value& doc);

/// Convenience: json::parse + sweep_spec_from_json (ParseError passes
/// through; all spec-level problems surface as SpecError).
[[nodiscard]] SweepSpec parse_sweep_spec(const std::string& text);

/// Canonical serialization: every supported field, fixed order. The
/// `transform_factory` hook is not representable in JSON and is omitted
/// (as is SweepRunner::Options, which lives on the runner, not the spec).
[[nodiscard]] json::Value sweep_spec_to_json(const SweepSpec& spec);

/// The named attack-scenario presets the CLI has always offered ("none",
/// "single", "mem", "multi"); shared so a preset means the same implants
/// in a JSON spec and on the sweep_cli command line.
[[nodiscard]] AttackScenario attack_scenario_preset(const std::string& name);

/// One scenario from either a preset name string or a full
/// {"name":..., "implants":[...]} object. `ecc` is the link code implants
/// are tuned against (the attacker knows the code; pass noc.ecc_scheme).
[[nodiscard]] AttackScenario attack_scenario_from_json(const json::Value& v,
                                                       EccScheme ecc);
[[nodiscard]] json::Value attack_scenario_to_json(const AttackScenario& sc);

}  // namespace htnoc::sweep
