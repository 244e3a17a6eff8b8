// Artifact replay checker: proof that bench artifacts are reproducible.
// Every bench row records the RunConfig that produced it (ReportSink::add
// with a config; schema in docs/BENCHMARKS.md), and every run is a pure
// function of its config — seeded RNG, deterministic partitioner, simulated
// interconnect — so re-running the config must reproduce the recorded
// deterministic metrics exactly. Which breakdown fields those are is each
// field's ReplayRule in core::kEpochBreakdownFields: measured wall times
// never compare, and on a measured (socket) recording neither do the
// exchange and allreduce spans.
//
// Usage: bench_replay <artifact.json> [--rows <n>]
//   <artifact.json>  a --json artifact from any bench
//   --rows <n>       replay only the first n config-carrying rows
//                    (default: all)
//
// Exit code 0 when every replayed row matches; 1 on any mismatch (this is
// the ci/verify.sh replay gate); 2 on bad usage / unreadable artifact.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "api/run.hpp"
#include "api/serialize.hpp"
#include "common/json.hpp"

namespace {

using namespace bnsgcn;

/// The key of the first field of `table` that differs between `want` and
/// `got`, among those `compared(entry, recorded value)` selects; empty when
/// they all match.
template <class S, class Table, class Pick>
std::string_view first_mismatch(const S& want, const S& got,
                                const Table& table, Pick compared) {
  std::string_view bad;
  for_each_field(table, [&](const auto& f) {
    if (bad.empty() && compared(f, want.*f.member) &&
        got.*f.member != want.*f.member)
      bad = f.key;
  });
  return bad;
}

const auto kEveryField = [](const auto&, const auto&) { return true; };

/// Deterministic-field comparison between a recorded report and its
/// replay. Returns true on match; prints the first divergence otherwise.
bool matches(const api::RunReport& want, const api::RunReport& got) {
  const auto fail = [](std::string_view what) {
    std::printf("    mismatch: %.*s\n", static_cast<int>(what.size()),
                what.data());
    return false;
  };
  if (got.method != want.method) return fail("method");
  if (got.dataset != want.dataset) return fail("dataset");
  if (got.train_loss != want.train_loss) return fail("train_loss sequence");
  if (got.final_val != want.final_val) return fail("final_val");
  if (got.final_test != want.final_test) return fail("final_test");
  if (got.curve.size() != want.curve.size()) return fail("curve length");
  for (std::size_t i = 0; i < want.curve.size(); ++i) {
    const auto bad = first_mismatch(want.curve[i], got.curve[i],
                                    core::kEvalPointFields, kEveryField);
    if (!bad.empty()) return fail("curve point " + std::string(bad));
  }
  if (got.epochs.size() != want.epochs.size()) return fail("epoch count");
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    // Each breakdown field replays by its ReplayRule (core/trainer.hpp).
    const bool simulated =
        want.epochs[i].timing == comm::TimingSource::kSimulated;
    const auto bad = first_mismatch(
        want.epochs[i], got.epochs[i], core::kEpochBreakdownFields,
        [&](const auto& f, const auto& recorded) {
          // Artifacts written before an optional field existed parse it
          // as 0: compare it only when the recording carries it.
          if (f.presence == Presence::kOptional && recorded == 0)
            return false;
          switch (f.rules.replay) {
            case core::ReplayRule::kExact: return true;
            case core::ReplayRule::kExactIfSimulated: return simulated;
            case core::ReplayRule::kNever: return false;
          }
          return true;
        });
    if (!bad.empty()) return fail(bad);
  }
  // The Eq. 4 memory report is a pure function of the partition and the
  // sampled halo counts.
  const auto bad = first_mismatch(want.memory, got.memory,
                                  core::kMemoryReportFields, kEveryField);
  if (!bad.empty()) return fail("memory." + std::string(bad));
  return true;
}

} // namespace

int main(int argc, char** argv) {
  using namespace bnsgcn;
  int max_rows = -1;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 1) {
        std::fprintf(stderr, "error: --rows needs a positive integer, got "
                             "'%s'\n", argv[i]);
        return 2;
      }
      max_rows = static_cast<int>(n);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s <artifact.json> [--rows <n>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s <artifact.json> [--rows <n>]\n", argv[0]);
    return 2;
  }

  std::ifstream is(path);
  if (!is.good()) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();

  json::Value doc;
  try {
    doc = json::Value::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s is not valid JSON (%s)\n", path,
                 e.what());
    return 2;
  }

  const json::Value* runs = doc.get("runs");
  if (runs == nullptr || !runs->is_array()) {
    std::fprintf(stderr, "error: %s has no \"runs\" array\n", path);
    return 2;
  }

  std::printf("replaying %s (%zu rows)\n", path, runs->size());
  int replayed = 0, failed = 0, skipped = 0;
  for (std::size_t i = 0; i < runs->size(); ++i) {
    const json::Value& row = (*runs)[i];
    const json::Value* cfg_json = row.get("config");
    if (cfg_json == nullptr) {
      ++skipped; // pre-migration artifact row; nothing to replay from
      continue;
    }
    if (max_rows >= 0 && replayed >= max_rows) break;
    const std::string label =
        row.get("label") != nullptr ? row.at("label").as_string() : "(row)";
    try {
      const api::RunConfig cfg = api::run_config_from_json(*cfg_json);
      const api::RunReport want = api::run_report_from_json(row.at("report"));
      std::printf("  [%zu] %s ... ", i, label.c_str());
      std::fflush(stdout);
      const api::RunReport got = api::run(cfg);
      ++replayed;
      if (matches(want, got)) {
        std::printf("ok\n");
      } else {
        ++failed;
      }
    } catch (const std::exception& e) {
      std::printf("  [%zu] %s ... error: %s\n", i, label.c_str(), e.what());
      ++replayed;
      ++failed;
    }
  }
  std::printf("replayed %d row(s): %d ok, %d failed, %d without config\n",
              replayed, replayed - failed, failed, skipped);
  if (replayed == 0) {
    std::fprintf(stderr,
                 "error: no replayable rows (artifact predates config "
                 "recording?)\n");
    return 1;
  }
  return failed == 0 ? 0 : 1;
}
