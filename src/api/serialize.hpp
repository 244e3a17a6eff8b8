#pragma once

#include <string>
#include <string_view>

#include "api/report.hpp"
#include "api/run.hpp"
#include "common/json.hpp"

namespace bnsgcn::api {

/// Machine-readable form of a run. Field-complete: from_json(to_json(r))
/// reproduces every stored field exactly (doubles are emitted with
/// round-trip precision), which tests/test_report_json.cpp pins.
/// Each struct's keys come from its field table (common/fields.hpp).
[[nodiscard]] json::Value to_json(const core::EpochBreakdown& e);
[[nodiscard]] json::Value to_json(const RunReport& r);

[[nodiscard]] core::EpochBreakdown breakdown_from_json(const json::Value& v);
[[nodiscard]] RunReport run_report_from_json(const json::Value& v);

/// Machine-readable form of a RunConfig, so artifacts can record the exact
/// configuration that produced each report and runs can be replayed from a
/// file. Every field except the (non-serializable) per-epoch observer
/// round-trips; on read, absent keys keep their C++ defaults, so config
/// files only spell out what they change. Schema: docs/BENCHMARKS.md.
[[nodiscard]] json::Value to_json(const RunConfig& cfg);
[[nodiscard]] RunConfig run_config_from_json(const json::Value& v);

/// String convenience wrappers.
[[nodiscard]] std::string to_json_string(const RunReport& r, int indent = 2);
[[nodiscard]] RunReport run_report_from_json_string(std::string_view text);
[[nodiscard]] std::string to_json_string(const RunConfig& cfg,
                                         int indent = 2);
[[nodiscard]] RunConfig run_config_from_json_string(std::string_view text);

} // namespace bnsgcn::api
