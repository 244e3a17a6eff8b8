#pragma once

// Shared helpers for the experiment benches. Each bench binary regenerates
// one table or figure of the paper (see docs/BENCHMARKS.md for the index).
//
// Every bench runs through the unified entry point bnsgcn::api::run and
// takes --scale / --epochs / --json (api::parse_bench_args); per-dataset
// hyperparameters come from the library-level registry (api/presets.hpp).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "api/cli.hpp"
#include "api/partition_cache.hpp"
#include "api/presets.hpp"
#include "api/run.hpp"
#include "api/serialize.hpp"
#include "graph/dataset.hpp"
#include "partition/metis_like.hpp"
#include "partition/stats.hpp"

namespace bnsgcn::bench {

inline void print_banner(const char* artifact, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf(
      "(synthetic datasets + simulated interconnect; see "
      "docs/ARCHITECTURE.md)\n");
  std::printf("================================================================\n");
}

/// One exchange schedule of the mode benches: an overlap mode and F1's
/// chunk size (0 = one chunk). Its row label is the mode's name, or
/// "chunked" for a stream cut into chunks.
struct Schedule {
  core::OverlapMode mode;
  NodeId chunk = 0;

  [[nodiscard]] const char* name() const {
    return chunk > 0 ? "chunked" : enum_names(mode).name(mode);
  }
};

inline double mb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// printf-style std::string, for run labels.
template <typename... Args>
[[nodiscard]] std::string label(const char* fmt, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// A registry dataset at bench scale together with its registered trainer
/// config — the starting point of most benches. Carries the DatasetSpec
/// `ds` was built from so every RunConfig the bench records names its
/// dataset exactly (the replayable-artifact contract, docs/BENCHMARKS.md).
struct PresetRun {
  api::DatasetSpec spec;
  Dataset ds;
  core::TrainerConfig trainer;

  /// A RunConfig pre-filled with this preset's dataset spec and trainer —
  /// partition/sampling knobs are the bench's to set. Runs built from it
  /// replay from the artifact alone via api::run_config_from_json.
  [[nodiscard]] api::RunConfig config(
      api::Method method = api::Method::kBns) const {
    api::RunConfig cfg;
    cfg.method = method;
    cfg.dataset = spec;
    cfg.trainer = trainer;
    return cfg;
  }
};

/// `opts` carries the cross-bench trainer knobs: every config built from
/// the returned PresetRun inherits --threads (recorded in artifact rows,
/// so replays run at the same lane count; results never depend on it).
inline PresetRun load_preset(const char* name, double scale,
                             const api::BenchOptions& opts) {
  api::DatasetSpec spec;
  spec.preset = name;
  spec.scale = scale;
  core::TrainerConfig trainer = api::preset_trainer_config(name);
  trainer.threads = opts.threads;
  return {spec, api::make_dataset(spec), std::move(trainer)};
}

/// Collects a bench's labeled runs and, when --json <path> was given,
/// writes them as one machine-readable artifact next to the printed table.
class ReportSink {
 public:
  ReportSink(const char* artifact, const api::BenchOptions& opts)
      : artifact_(artifact), opts_(opts) {
    // Fail fast on an unwritable path — before hours of runs, not after.
    // Append-mode probe: creates a missing file but never truncates an
    // existing artifact from a previous run.
    if (!opts_.json_path.empty()) {
      std::ofstream probe(opts_.json_path, std::ios::app);
      if (!probe.good()) {
        std::fprintf(stderr, "error: cannot open for writing: %s\n",
                     opts_.json_path.c_str());
        std::exit(2);
      }
    }
  }

  /// Record a run (no-op unless --json was given). Takes and returns the
  /// report by value so call sites can sink-and-use in one expression
  /// (binding the result to a const reference is safe).
  api::RunReport add(std::string label, api::RunReport report) {
    if (!opts_.json_path.empty())
      rows_.push_back(make_row(std::move(label), report, nullptr));
    return report;
  }

  /// Same, additionally recording the RunConfig that produced the report —
  /// the artifact row gains a "config" object (schema: docs/BENCHMARKS.md)
  /// so the run can be replayed via api::run_config_from_json.
  api::RunReport add(std::string label, const api::RunConfig& cfg,
                     api::RunReport report) {
    if (!opts_.json_path.empty())
      rows_.push_back(make_row(std::move(label), report, &cfg));
    return report;
  }

  /// True when stdout is an interactive terminal — the only place the
  /// carriage-return progress line makes sense (in a pipe or CI log the
  /// rewrites would concatenate into garbage, so streaming is skipped).
  [[nodiscard]] static bool stdout_is_tty() {
#if defined(_WIN32)
    return false;
#else
    static const bool tty = isatty(fileno(stdout)) != 0;
    return tty;
#endif
  }

  /// Wire a live per-epoch progress printer into cfg's Observer slot:
  /// "<label>: epoch k/N loss=…" rewritten in place on stdout while the
  /// run trains (TTY only), erased when it finishes. Long bench tables
  /// stream instead of going silent until the post-hoc print; any
  /// observer already set on the config keeps firing after the line.
  static void stream_progress(api::RunConfig& cfg, std::string label) {
    if (!stdout_is_tty()) return;
    const core::EpochObserver prior = cfg.trainer.observer;
    const int total = cfg.trainer.epochs;
    cfg.trainer.observer = [prior, total, label = std::move(label)](
                               const core::EpochSnapshot& s) {
      std::printf("\r  %-44s epoch %3d/%-3d loss %.4f", label.c_str(),
                  s.epoch, total, s.train_loss);
      std::fflush(stdout);
      if (prior) prior(s);
    };
  }

  /// Run `cfg` with stream_progress attached, then record the row exactly
  /// like add() (the recorded config keeps the caller's observer, so the
  /// artifact row replays as given).
  api::RunReport run_streamed(std::string label, api::RunConfig cfg) {
    return run_streamed_with(std::move(label), std::move(cfg),
                             [](const api::RunConfig& c) {
                               return api::run(c);
                             });
  }

  /// run_streamed over a prebuilt dataset (the sweep-loop form: the graph
  /// is built once, the partition comes from the cache).
  api::RunReport run_streamed(std::string label, const Dataset& ds,
                              api::RunConfig cfg) {
    return run_streamed_with(std::move(label), std::move(cfg),
                             [&ds](const api::RunConfig& c) {
                               return api::run(ds, c);
                             });
  }

  /// Write the artifact (called from the destructor; explicit form exists
  /// for benches that want to flush before printing a summary).
  void finish() {
    if (opts_.json_path.empty() || finished_) return;
    finished_ = true;
    json::Value doc = json::Value::object();
    doc.set("artifact", artifact_);
    doc.set("scale", opts_.scale);
    json::Value runs = json::Value::array();
    for (auto& row : rows_) runs.push_back(std::move(row));
    doc.set("runs", std::move(runs));
    try {
      json::write_file(opts_.json_path, doc);
      std::printf("\nwrote JSON artifact: %s (%zu runs)\n",
                  opts_.json_path.c_str(), rows_.size());
    } catch (const std::exception& e) {
      // Must not throw out of the destructor; the table already printed.
      std::fprintf(stderr, "error: %s\n", e.what());
    }
  }

  ~ReportSink() { finish(); }

 private:
  /// Shared body of the run_streamed overloads: attach the progress
  /// observer, run through `run_fn`, erase the progress line, record.
  template <typename RunFn>
  api::RunReport run_streamed_with(std::string label, api::RunConfig cfg,
                                   RunFn run_fn) {
    const core::EpochObserver prior = cfg.trainer.observer;
    stream_progress(cfg, label);
    api::RunReport report = run_fn(cfg);
    if (stdout_is_tty()) std::printf("\r%*s\r", 78, "");
    cfg.trainer.observer = prior;
    return add(std::move(label), cfg, std::move(report));
  }

  static json::Value make_row(std::string label, const api::RunReport& report,
                              const api::RunConfig* cfg) {
    json::Value row = json::Value::object();
    row.set("label", std::move(label));
    row.set("report", api::to_json(report));
    if (cfg != nullptr) row.set("config", api::to_json(*cfg));
    return row;
  }

  std::string artifact_;
  api::BenchOptions opts_;
  std::vector<json::Value> rows_;
  bool finished_ = false;
};

} // namespace bnsgcn::bench
