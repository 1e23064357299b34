// JSON codec for CampaignSpec — shared by `campaign_cli --spec` and the
// tests (the sweep-side counterpart lives in src/sweep/spec_json.hpp; same
// contract).
//
// Strict parse (unknown keys / wrong types / out-of-range values raise
// sweep::SpecError with the field path), canonical serialization (every
// supported field, fixed order, seeds as hex strings), and
// to_json(from_json(doc)) is a fixed point.
//
// Execution knobs that do not change the drawn scenarios — the worker
// thread count and the `progress` / `should_stop` runtime hooks — are
// deliberately NOT part of the spec document; they belong to the caller
// (`--jobs` on the CLI, the hooks to in-process drivers).
#pragma once

#include <string>

#include "common/json.hpp"
#include "sweep/spec_json.hpp"
#include "verify/campaign.hpp"

namespace htnoc::verify {

/// The audit periods a spec's `audit_period` accepts (and so does
/// `campaign_cli --audit-period`).
inline constexpr Cycle kMinAuditPeriod = 1;
inline constexpr Cycle kMaxAuditPeriod = 1'000'000;
/// The largest `scenarios` a spec accepts (and `campaign_cli --scenarios`).
inline constexpr std::uint64_t kMaxScenarios = 100'000'000;

[[nodiscard]] CampaignSpec campaign_spec_from_json(const json::Value& doc);
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& text);
[[nodiscard]] json::Value campaign_spec_to_json(const CampaignSpec& spec);

}  // namespace htnoc::verify
